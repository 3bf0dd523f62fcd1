// Package oblivious implements the data-independent ("oblivious") operators
// IncShrink compiles into its MPC protocols: Batcher's odd-even merge
// sorting network (the ObliSort of Algorithms 2 and 3, citing Batcher [5])
// and the b-truncated oblivious sort-merge join of Example 5.1.
//
// Obliviousness here means the sequence of memory touches and
// compare-exchange positions depends only on input *sizes*, never on
// values. The simulator executes the operators over plaintext (the secrets
// are notional shares), but the control flow is the real network, the
// compare-exchange count is charged to the MPC cost meter, and tests assert
// the access pattern is identical across inputs of equal size.
package oblivious

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"incshrink/internal/mpc"
)

// sortKey is one element of the packed-key sort. Every sort extracts its
// keys once, in a linear pass, and the network then moves only these 16
// bytes per comparator:
//
//	k  the order-preserving primary key (a sign-flipped int64 column for the
//	   join, 1-isView for the real-first cache sort)
//	w  tag<<32 | index: the tie-break tag over the element's original
//	   position, which is how the permutation is read back afterwards
//
// The order is (k, tag) lexicographic. The index never takes part: two
// elements equal on (k, tag) are not exchanged, exactly like the strict
// `less` comparators this kernel replaced, so the permutation on ties — and
// with it every golden, snapshot and transcript — is unchanged.
type sortKey struct{ k, w uint64 }

// keyPool recycles the key slices, so a warm sort allocates nothing.
var keyPool = sync.Pool{New: func() any { s := make([]sortKey, 0, 1024); return &s }}

// getKeys borrows a key slice of length n (contents unspecified).
func getKeys(n int) *[]sortKey {
	p := keyPool.Get().(*[]sortKey)
	if cap(*p) < n {
		*p = make([]sortKey, n)
	}
	*p = (*p)[:n]
	return p
}

// boolWord is the bool -> {0,1} word conversion: the real-first key
// extraction, the flag byte the view stores and every real-slot counter go
// through it. The compiler lowers it to a flag move, not a jump; it is the
// one branch-shaped primitive the sort, the scans and the counters admit to
// OblivTaintSanctioned.
func boolWord(b bool) uint64 {
	var w uint64
	if b {
		w = 1
	}
	return w
}

// exchange is the sort kernel: it applies the comparators (i0,j0,i1,j1,...)
// of pairs to keys in order. Each compare-exchange is branch-free — a
// 128-bit borrow chain decides (k, tag) order and a masked XOR swaps both
// words or neither — so its instruction trace, like its address trace, is a
// function of the pair list alone. It is written inline in the loop because
// the compiler will not inline it as a helper, and the call costs a third
// of the loop; the indexes are widened unsigned, which spares a sign
// extension per load.
func exchange(keys []sortKey, pairs []int32) {
	for c := 1; c < len(pairs); c += 2 {
		i, j := uint32(pairs[c-1]), uint32(pairs[c])
		a, b := keys[i], keys[j]
		_, lt := bits.Sub64(b.w>>32, a.w>>32, 0)
		_, lt = bits.Sub64(b.k, a.k, lt) // lt = 1 iff (b.k, b.tag) < (a.k, a.tag)
		dk, dw := (a.k^b.k)&-lt, (a.w^b.w)&-lt
		keys[i] = sortKey{a.k ^ dk, a.w ^ dw}
		keys[j] = sortKey{b.k ^ dk, b.w ^ dw}
	}
}

// sortKeys runs Batcher's odd-even merge sorting network over keys in place,
// charging one compare-exchange per comparator to meter under op. It is the
// one executor, and it is serial: the network layout depends only on
// len(keys) — the charge is the padded power-of-two network,
// mpc.SortCompareExchanges(len(keys)), which the executed one never exceeds —
// and the cached pair list goes to the kernel whole. Above networkCacheMaxN
// the same comparator sequence is enumerated layer by layer into a pooled
// scratch list instead of being retained, which bounds resident memory
// against client-chosen sizes. Serial on purpose: splitting a layer's
// index-disjoint comparators across goroutines measured slower at every size
// (DESIGN.md §12).
func sortKeys(keys []sortKey, meter *mpc.Meter, op mpc.Op, tupleBits int) {
	n := len(keys)
	if n <= 1 {
		return
	}
	if meter != nil {
		meter.ChargeSort(op, n, tupleBits)
	}
	if n > networkCacheMaxN {
		networkCacheEvictions.Add(1)
		pp := pairScratchPool.Get().(*[]int32)
		*pp = batcherLayers(n, (*pp)[:0], func(layer []int32) []int32 {
			exchange(keys, layer)
			return layer[:0]
		})
		pairScratchPool.Put(pp)
		return
	}
	exchange(keys, loadNetwork(n))
}

// batcherLayers is the one enumeration of Batcher's odd-even merge sorting
// network for n elements. The comparators (i, j), i < j, of each (p,k) layer
// are appended to buf as flat pairs, then layerEnd receives the slice and
// returns the buffer the next layer appends to: return it unchanged to
// accumulate the whole network, or resliced to [:0] after consuming the
// layer. The enumeration is the standard iterative network on the
// next-power-of-two index range; comparators touching indices >= n are
// skipped consistently for every input of this length, so the pattern stays
// data-independent. Within a layer every comparator touches a disjoint
// index pair — for fixed k the low ends cover [j, j+k) and the high ends
// [j+k, j+2k) with j stepping by 2k — so a layer's compare-exchanges commute;
// only the layer boundaries order.
func batcherLayers(n int, buf []int32, layerEnd func(pairs []int32) []int32) []int32 {
	p2 := 1
	for p2 < n {
		p2 <<= 1
	}
	for p := 1; p < p2; p <<= 1 {
		for k := p; k >= 1; k >>= 1 {
			for j := k % p; j <= p2-1-k; j += 2 * k {
				for i := 0; i <= k-1; i++ {
					a, b := i+j, i+j+k
					if a/(p*2) == b/(p*2) && b < n {
						buf = append(buf, int32(a), int32(b))
					}
				}
			}
			buf = layerEnd(buf)
		}
	}
	return buf
}

// networkCache memoizes the comparator list of Batcher's network per input
// length. The network is a pure function of n, and the engine sorts the
// same few padded sizes over and over (every Transform of a deployment
// sorts identically sized arrays — in a batched ingest run, once per step),
// so replaying a flat pair list replaces the four nested loops and the
// per-comparator index arithmetic of the enumeration on every sort after
// the first. (Replay also beats a run-structured enumeration — contiguous
// lo/hi slices with no index loads — which measured slower than loading the
// pairs on the 1,040-element join sort.) The cache is a copy-on-write map —
// reads are one atomic load and a plain int-keyed map index, which stays off
// the allocator on the hot path (a sync.Map would box the int key on every
// lookup); inserts are rare (one per distinct size, ever) and copy the map
// under a mutex. It is bounded two ways: lengths above networkCacheMaxN are
// never cached (O(n log^2 n) pairs for rare one-off sizes), and the total
// retained pairs across all lengths are capped by networkCachePairBudget —
// important in the multi-tenant server, where sort sizes derive from
// client-chosen deployments and an adversarial mix of block sizes must not
// grow resident memory without bound. Beyond the budget, a sort enumerates
// its network afresh.
var (
	networkCache      atomic.Value // map[int][]int32, copy-on-write
	networkCacheMu    sync.Mutex   // serializes map copies on insert
	networkCachePairs atomic.Int64 // pairs currently retained across all entries

	// Cache accounting, exported through CacheStats for the
	// incshrink_core_comparator_cache_* metric families: hits replayed a
	// retained network, misses enumerated one, evictions enumerated one and
	// could not retain it (pair budget exhausted, or an oversized length).
	networkCacheHits      atomic.Int64
	networkCacheMisses    atomic.Int64
	networkCacheEvictions atomic.Int64
)

const (
	networkCacheMaxN       = 1 << 13
	networkCachePairBudget = 4 << 20 // ~32 MiB of int32 pairs total
)

// pairScratchPool recycles the per-layer pair list of the streaming path.
var pairScratchPool = sync.Pool{New: func() any { s := make([]int32, 0, 4096); return &s }}

// CacheStats reports the network cache's lifetime hit/miss/eviction counts
// and the pairs currently retained (against networkCachePairBudget). It is
// the data source of the incshrink_core_comparator_cache_* families.
func CacheStats() (hits, misses, evictions, pairs int64) {
	return networkCacheHits.Load(), networkCacheMisses.Load(),
		networkCacheEvictions.Load(), networkCachePairs.Load()
}

// cachedNetworks reads the current copy-on-write cache map (nil before the
// first insert): input length -> the network's comparator pairs flattened as
// (i0,j0,i1,j1,...).
func cachedNetworks() map[int][]int32 {
	m, _ := networkCache.Load().(map[int][]int32)
	return m
}

// loadNetwork returns the memoized network for n, enumerating (and retaining,
// budget permitting) it on first use.
func loadNetwork(n int) []int32 {
	if net, ok := cachedNetworks()[n]; ok {
		networkCacheHits.Add(1)
		return net
	}
	networkCacheMisses.Add(1)
	net := batcherLayers(n, nil, func(pairs []int32) []int32 { return pairs })
	nPairs := int64(len(net) / 2)
	if networkCachePairs.Add(nPairs) <= networkCachePairBudget {
		networkCacheMu.Lock()
		old := cachedNetworks()
		if _, loaded := old[n]; loaded {
			networkCachePairs.Add(-nPairs) // lost the race: not retained
		} else {
			next := make(map[int][]int32, len(old)+1)
			for k, v := range old {
				next[k] = v
			}
			next[n] = net
			networkCache.Store(next)
		}
		networkCacheMu.Unlock()
	} else {
		networkCachePairs.Add(-nPairs) // budget exhausted: don't retain
		networkCacheEvictions.Add(1)
	}
	return net
}
