// Package oblivious implements the data-independent ("oblivious") operators
// IncShrink compiles into its MPC protocols: Batcher's odd-even merge
// sorting network (the ObliSort of Algorithms 2 and 3, citing Batcher [5])
// and the b-truncated oblivious sort-merge join of Example 5.1.
//
// Obliviousness here means the sequence of memory touches and
// compare-exchange positions depends only on input *sizes*, never on
// values. The simulator executes the operators over plaintext (the secrets
// are notional shares), but the control flow is the real network, and tests
// assert the access pattern is identical across inputs of equal size. The
// engine's operators execute and never price: internal/core charges the MPC
// cost meter from the public sizes it hands them. TruncatedSortMergeJoinInto,
// the reference join, still prices itself.
package oblivious

import (
	"math/bits"
	"slices"
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
// `less` comparators this kernel replaced. The join's tag is its side, so
// its permutation on ties is the network's — and with it every join golden
// and transcript. The real-first sort's tag is the position itself, which
// makes its order total: the output is the unique stable partition, reals
// in arrival order then dummies, whatever network or run layout produced
// it (MergeRealFirst).
type sortKey struct{ k, w uint64 }

// scratch is the workspace of the operators that mutate the Buffer it rides
// on — b in MergeRealFirst, dst in the two joins. Each part grows on first use
// and is kept, so a warm operator allocates nothing; and because it has one
// owner, no operator ever sees memory another buffer, query or tenant wrote.
type scratch struct {
	keys, wires     []sortKey // the packed sort keys; mergeKeys' padded wire array
	contrib, window []int     // emitJoin's per-record counters and current key group
	ends            []int     // MergeRealFirst's run ends, merged pairwise
	pairs           []int32   // one streamed layer of a sort above networkCacheMaxN
	gather          *Buffer   // gather's arena, swapped with the buffer's own
}

// resized returns s at length n, reallocated only when its capacity falls
// short; the contents are unspecified.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// boolWord is the bool -> {0,1} word conversion: the real-first key
// extraction, the flag bit the view stores and every real-slot counter go
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

// sortKeys runs Batcher's odd-even merge sorting network over keys in place
// and returns the number of comparators it executed, which never exceeds the
// padded power-of-two network its callers are priced at,
// mpc.SortCompareExchanges(len(keys)). It is the one executor, and it is
// serial: the network layout depends only on len(keys), and the kernel takes
// it a layer at a time from forEachLayer. Serial on purpose: splitting a
// layer's index-disjoint comparators across goroutines measured slower at
// every size (DESIGN.md §12).
func sortKeys(ws *scratch, keys []sortKey) int {
	n := len(keys)
	if n <= 1 {
		return 0
	}
	return forEachLayer(ws, 0, n, n, 0, func(layer []int32) { exchange(keys, layer) })
}

// mergeKeys merges the sorted runs keys[:m] and keys[m:] in place through the
// last phase of the same network, which its callers are priced at padded to
// its power of two (mpc.MergeCompareExchanges). With P the power of two >=
// both runs, phase P of the 2P-wire network merges a sorted [0, P) with a
// sorted [P, 2P); the runs are laid at wires [P-m, P) and [P, P+f) of the
// workspace's array, the wires outside standing for -inf and +inf, whose
// comparators never exchange: what runs is one window of every layer
// (forEachLayer). Only keys[:keep] of the result are its callers' output,
// so only the comparators that reach one of those wires run: the layers after
// one of distance k have distances summing to k-1, so a comparator of that
// layer whose low wire is keep+k-1 or more past the first reaches none of
// them. The first keep keys are exactly the full merge's and the rest are
// left in some order of their own; keep >= len(keys) runs the whole window.
// It returns the number of comparators executed.
func mergeKeys(ws *scratch, keys []sortKey, m, keep int) int {
	f := len(keys) - m
	if m == 0 || f == 0 {
		return 0
	}
	lp := bits.Len(uint(max(m, f) - 1))
	lo := 1<<lp - m
	ws.wires = resized(ws.wires, lo+len(keys))
	wires := ws.wires
	copy(wires[lo:], keys)
	ran := forEachLayer(ws, lo, lo+len(keys), lo+keep, lp, func(layer []int32) { exchange(wires, layer) })
	copy(keys, wires[lo:])
	return ran
}

// forEachLayer hands visit, in order, the layers of the network on wires
// [0, hi) (hi >= 2) from phase 1<<from on, each cut to the comparators whose
// low index is at least lo and, in a layer of distance k, below top+k-1 —
// those that reach a wire below top by the end of the network — as flat
// pairs valid only during the call: a sort is (0, n, n, 0), a merge the last
// phase over the wires its runs occupy, cut to the outputs it keeps. Up to
// networkCacheMaxN a layer is a window of the same layer of the retained
// 2^lg-wire network (networkTable): within a layer both indexes ascend, the
// high one k above the low, so "low >= lo" and "high < min(hi, top+2k-1)"
// bound a contiguous run whose ends layerCut gives in closed form; below
// phase `from` the table is 2^(lg-from) copies of the 2^from-wire network.
// Above networkCacheMaxN the layers are enumerated one at a time into
// ws.pairs instead, bounding memory. It returns the number of comparators
// visited.
func forEachLayer(ws *scratch, lo, hi, top, from int, visit func(layer []int32)) (pairs int) {
	if hi > networkCacheMaxN {
		networkCacheEvictions.Add(1)
		ws.pairs = batcherLayers(lo, top, hi, 1<<from, ws.pairs[:0], func(layer []int32) []int32 {
			visit(layer)
			pairs += len(layer) / 2
			return layer[:0]
		})
		return pairs
	}
	lg := bits.Len(uint(hi - 1))
	table := networkTable(lg)[2*mpc.SortCompareExchanges(1<<from)<<(lg-from):]
	for lp := from; lp < lg; lp++ {
		for lk := lp; lk >= 0; lk-- {
			end := layerCut(lp, lk, min(hi, top+2<<lk-1))
			start := min(layerCut(lp, lk, lo+1<<lk), end)
			visit(table[2*start : 2*end])
			pairs += end - start
			table = table[2*layerCut(lp, lk, 1<<lg):]
		}
	}
	return pairs
}

// batcherLayers is the one enumeration of Batcher's odd-even merge sorting
// network for n elements. The comparators (i, j), i < j, of each (p,k) layer
// are appended to buf as flat pairs, then layerEnd receives the slice and
// returns the buffer the next layer appends to: return it unchanged to
// accumulate the whole network, or resliced to [:0] after consuming the
// layer. The enumeration is the standard iterative network on the
// next-power-of-two index range, taken a run at a time: for fixed k the low
// ends of a run cover [j, j+k) and the high ends [j+k, j+2k), with j stepping
// by 2k from k mod p, and a run belongs to the network iff it lies inside
// one 2p-aligned block. Comparators touching indices >= n are skipped
// consistently for every input of this length, so the pattern stays
// data-independent; within a layer every comparator touches a disjoint index
// pair, so a layer's compare-exchanges commute and only the layer boundaries
// order; and within a layer the high index strictly ascends, which is what
// makes the n-element layer a prefix of the 2^lg-wire one (layerCut). A sort
// passes (0, n, n, 1); a merge starts at its phase p0, drops low indexes < lo
// and, in a layer of distance k, low indexes >= top+k-1.
func batcherLayers(lo, top, n, p0 int, buf []int32, layerEnd func(pairs []int32) []int32) []int32 {
	p2 := 1 << bits.Len(uint(n-1))
	for p := p0; p < p2; p <<= 1 {
		for k := p; k >= 1; k >>= 1 {
			for j := k & (p - 1); j+k < n; j += 2 * k {
				if (j^(j+2*k-1))&^(2*p-1) != 0 {
					continue // the run straddles a 2p block boundary
				}
				for a, end := max(j, lo), min(j+k, n-k, top+k-1); a < end; a++ {
					buf = append(buf, int32(a), int32(a+k))
				}
			}
			buf = layerEnd(buf)
		}
	}
	return buf
}

// layerCut is the number of comparators of layer (p, k) = (1<<lp, 1<<lk),
// on any power-of-two wire count >= n, whose high index is below n — the
// length of the prefix of that layer the n-element network executes, and at
// n = the wire count the layer's full size. In closed form: within every
// 2p-block the high ends are [p, 2p) when k = p, and [2km, 2km+k) for
// m = 1..p/k-1 when k < p — after the first `skip` indices, one run of k in
// every 2k. So each whole block below n holds `per` comparators and the
// block n falls in the part of those runs below n. It branches on layer
// geometry only.
func layerCut(lp, lk, n int) int {
	p, k := 1<<lp, 1<<lk
	skip, per := 2*k, p-k
	if lk == lp {
		skip, per = k, p
	}
	r := max(0, n&(2*p-1)-skip)
	return n>>(lp+1)*per + r>>(lk+1)<<lk + min(r&(2*k-1), k)
}

const (
	networkCacheMaxLg = 13
	networkCacheMaxN  = 1 << networkCacheMaxLg
)

// networkTables retains Batcher's network on 2^lg wires for each
// lg <= networkCacheMaxLg: the comparator pairs flattened as
// (i0,j0,i1,j1,...), layer after layer, built on first use. One table serves
// every input length in (2^(lg-1), 2^lg], because the n-element network is,
// layer by layer, a prefix of it — which matters because sDPANT sorts a cache
// whose length is whatever the DP-noised fetches left behind, and the
// multi-tenant server's lengths derive from client-chosen deployments, so a
// process keeps meeting new lengths. Resident pairs are bounded by
// construction: all tables together hold ~565 k pairs (~4.5 MB). Why the
// executor replays pair lists rather than walking the runs: DESIGN.md §12.
var networkTables [networkCacheMaxLg + 1]struct {
	once  sync.Once
	pairs []int32
}

// networkTable returns the retained network on 2^lg wires, building it on
// first use.
func networkTable(lg int) []int32 {
	t := &networkTables[lg]
	built := false
	t.once.Do(func() {
		n := 1 << lg
		t.pairs = batcherLayers(0, n, n, 1, make([]int32, 0, 2*mpc.SortCompareExchanges(n)),
			func(pairs []int32) []int32 { return pairs })
		networkCachePairs.Add(int64(len(t.pairs) / 2))
		networkCacheMisses.Add(1)
		built = true
	})
	if !built {
		networkCacheHits.Add(1)
	}
	return t.pairs
}

// Cache accounting, the data source of the
// incshrink_core_comparator_cache_* metric families: a hit replayed a
// retained table, a miss built one (at most once per table, ever), an
// eviction streamed a length above networkCacheMaxN without retaining
// anything.
var (
	networkCacheHits      atomic.Int64
	networkCacheMisses    atomic.Int64
	networkCacheEvictions atomic.Int64
	networkCachePairs     atomic.Int64 // pairs the built tables retain
)

// CacheStats reports those counters.
func CacheStats() (hits, misses, evictions, pairs int64) {
	return networkCacheHits.Load(), networkCacheMisses.Load(),
		networkCacheEvictions.Load(), networkCachePairs.Load()
}
