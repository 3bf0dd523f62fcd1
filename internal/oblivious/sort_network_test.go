package oblivious

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/table"
)

// sortZeroOne runs the network over a 0/1 slice through the kernel: each bit
// is a sort key, and the sorted keys are read back in place.
func sortZeroOne(bits []int) {
	keys := make([]sortKey, len(bits))
	for i, b := range bits {
		keys[i] = sortKey{k: uint64(b), w: uint64(i)}
	}
	sortKeys(keys, nil, mpc.OpOther, 64)
	for i, key := range keys {
		bits[i] = int(key.k)
	}
}

func isSortedZeroOne(bits []int) bool {
	for i := 1; i < len(bits); i++ {
		if bits[i] < bits[i-1] {
			return false
		}
	}
	return true
}

// TestBatcherZeroOnePrinciple: a comparator network sorts every input iff it
// sorts every 0/1 input (the 0-1 principle), so checking all 2^n bit
// vectors proves the skipped-comparator construction correct at
// non-power-of-two sizes. Exhaustive through n=16; beyond that every
// threshold pattern, every single-bit pattern, and seeded random vectors.
func TestBatcherZeroOnePrinciple(t *testing.T) {
	for n := 1; n <= 16; n++ {
		for mask := 0; mask < 1<<n; mask++ {
			bits := make([]int, n)
			for i := range bits {
				bits[i] = (mask >> i) & 1
			}
			sortZeroOne(bits)
			if !isSortedZeroOne(bits) {
				t.Fatalf("n=%d mask=%b: network failed to sort", n, mask)
			}
		}
	}
	rng := rand.New(rand.NewSource(41)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	for n := 17; n <= 64; n++ {
		var cases [][]int
		for k := 0; k <= n; k++ { // threshold inputs: k ones then zeros
			bits := make([]int, n)
			for i := 0; i < k; i++ {
				bits[i] = 1
			}
			cases = append(cases, bits)
		}
		for k := 0; k < n; k++ { // single-bit inputs
			bits := make([]int, n)
			bits[k] = 1
			cases = append(cases, bits)
		}
		for trial := 0; trial < 200; trial++ {
			bits := make([]int, n)
			for i := range bits {
				bits[i] = rng.Intn(2)
			}
			cases = append(cases, bits)
		}
		for ci, bits := range cases {
			in := append([]int(nil), bits...)
			sortZeroOne(bits)
			if !isSortedZeroOne(bits) {
				t.Fatalf("n=%d case=%d input=%v: network failed to sort", n, ci, in)
			}
		}
	}
}

// TestZeroOneCacheSort: the same principle through the whole cache sort —
// key extraction from the isView column, kernel, gather — exhaustively over
// every flag pattern at small sizes. Payloads carry the original position,
// so the check also pins that the gather moves whole slots.
func TestZeroOneCacheSort(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for mask := 0; mask < 1<<n; mask++ {
			b := GetBuffer(1)
			for i := 0; i < n; i++ {
				b.AppendSlot(table.Row{int64(i)}, mask>>i&1 == 1, int64(i), int64(i))
			}
			SortRealFirst(b, nil, mpc.OpOther, 64)
			if !sortedRealFirst(b.Flags()) || b.Real() != bits.OnesCount(uint(mask)) {
				t.Fatalf("n=%d mask=%b: not real-first: %v", n, mask, b.Flags())
			}
			for i := 0; i < n; i++ {
				src := int(b.At(i, 0))
				if b.IsReal(i) != (mask>>src&1 == 1) {
					t.Fatalf("n=%d mask=%b: slot %d torn from its flag", n, mask, i)
				}
			}
			b.Release()
		}
	}
}

// TestCachedReplayMatchesFreshEnumeration: the memoized pair list must
// replay comparators in exactly the enumeration's order — the leakage
// transcript and the sorted result depend on it — both on the cold path
// that records the cache entry and on the warm path that replays it.
func TestCachedReplayMatchesFreshEnumeration(t *testing.T) {
	const n = 37 // uncommon non-power-of-two size
	var want []int32
	forEachComparator(n, func(i, j int) { want = append(want, int32(i), int32(j)) })
	for pass := 0; pass < 2; pass++ { // cold (records), then warm (replays)
		if got := loadNetwork(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: cached replay diverges from fresh enumeration (%d vs %d comparators)",
				pass, len(got)/2, len(want)/2)
		}
	}
}

// TestLayersAreDisjoint: within one (p,k) layer no index may appear twice —
// the property that makes a layer's swaps order-independent (and one opening
// round in the two-party evaluation).
func TestLayersAreDisjoint(t *testing.T) {
	for _, n := range []int{2, 7, 64, 640, 1088, 5000} {
		seen := map[int32]bool{}
		batcherLayers(n, nil, func(pairs []int32) []int32 {
			clear(seen)
			for _, i := range pairs {
				if seen[i] {
					t.Fatalf("n=%d: index %d reused within a layer", n, i)
				}
				seen[i] = true
			}
			return pairs[:0]
		})
	}
}

// TestStreamingPathMatchesReference: above networkCacheMaxN the network is
// enumerated layer by layer into a scratch list instead of replayed from the
// cache; the result must be the reference network's — the closure-driven,
// branching replay of the same enumeration — on keys heavy with (k, tag) ties.
func TestStreamingPathMatchesReference(t *testing.T) {
	const n = networkCacheMaxN + 808
	rng := rand.New(rand.NewSource(77)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	keys := make([]sortKey, n)
	for i := range keys {
		keys[i] = sortKey{k: uint64(rng.Intn(50)), w: uint64(rng.Intn(2))<<32 | uint64(i)}
	}
	want := append([]sortKey(nil), keys...)
	forEachComparator(n, func(i, j int) {
		a, b := want[i], want[j]
		if b.k < a.k || (b.k == a.k && b.w>>32 < a.w>>32) {
			want[i], want[j] = b, a
		}
	})
	_, _, ev0, _ := CacheStats()
	sortKeys(keys, nil, mpc.OpOther, 64)
	if _, _, ev1, _ := CacheStats(); ev1 != ev0+1 {
		t.Fatalf("n=%d did not take the streaming path (evictions %d -> %d)", n, ev0, ev1)
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("n=%d: streamed sort differs from the reference network", n)
	}
}

// TestCacheStatsMove: the comparator-cache counters behind the
// incshrink_core_comparator_cache_* gauges must account a miss on first
// use of a size and a hit on reuse. (The cache is process-global and tests
// may repeat with -count, so the first observation adapts to whether the
// size is already retained.)
func TestCacheStatsMove(t *testing.T) {
	const n = 1531 // unlikely to be used by any other test
	_, cached := cachedNetworks()[n]
	h0, m0, _, p0 := CacheStats()
	sortKeys(make([]sortKey, n), nil, mpc.OpOther, 64)
	h1, m1, _, p1 := CacheStats()
	if cached {
		if h1 != h0+1 || m1 != m0 {
			t.Fatalf("replay of retained n=%d: hits %d -> %d misses %d -> %d, want hit +1", n, h0, h1, m0, m1)
		}
	} else {
		if m1 != m0+1 {
			t.Fatalf("first enumeration of n=%d: misses %d -> %d, want +1", n, m0, m1)
		}
		if p1 <= p0 {
			t.Fatalf("retained pairs did not grow: %d -> %d", p0, p1)
		}
	}
	sortKeys(make([]sortKey, n), nil, mpc.OpOther, 64)
	h2, m2, _, _ := CacheStats()
	if h2 != h1+1 || m2 != m1 {
		t.Fatalf("replay of n=%d: hits %d -> %d misses %d -> %d, want hit +1", n, h1, h2, m1, m2)
	}
}
