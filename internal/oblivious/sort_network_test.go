package oblivious

import (
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
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
	sortKeys(new(scratch), keys, nil, mpc.OpOther, 64)
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
	rng := rand.New(rand.NewSource(41))
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
			b := NewBuffer(1, 0)
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
		}
	}
}

// networkOf collects the comparator sequence sortKeys executes on n elements:
// every layer forEachLayer hands the kernel, flattened in order.
func networkOf(n int) []int32 {
	got := []int32{}
	forEachLayer(new(scratch), 0, n, 0, func(layer []int32) { got = append(got, layer...) })
	return got
}

// referenceNetwork is the same sequence from the reference enumeration.
func referenceNetwork(n int) []int32 {
	want := []int32{}
	forEachComparator(n, func(i, j int) { want = append(want, int32(i), int32(j)) })
	return want
}

// TestEveryLengthIsALayerPrefix pins the property the retained tables rest
// on: the n-element network is, layer by layer, a prefix of the network on
// the next power of two. The pairs sortKeys hands to exchange equal the
// reference enumeration pair for pair, in order — at every small length, at
// both sides of the power-of-two boundaries, at the tpcds sizes and at the
// table limit — and within every layer of every table the high index
// strictly ascends, the fact that makes "high index < n" a prefix.
func TestEveryLengthIsALayerPrefix(t *testing.T) {
	sizes := []int{1023, 1024, 1025, 1040, 1105, 4097, 8191, 8192}
	for n := 2; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		if got, want := networkOf(n), referenceNetwork(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: executed network differs from the reference (%d vs %d comparators)",
				n, len(got)/2, len(want)/2)
		}
	}
	for lg := 1; lg <= networkCacheMaxLg; lg++ {
		pairs := networkTable(lg)
		for lp := 0; lp < lg; lp++ {
			for lk := lp; lk >= 0; lk-- {
				layer := pairs[:2*layerCut(lp, lk, 1<<lg)]
				pairs = pairs[len(layer):]
				for c := 3; c < len(layer); c += 2 {
					if layer[c] <= layer[c-2] {
						t.Fatalf("table %d layer (p=%d,k=%d): high index %d after %d",
							lg, 1<<lp, 1<<lk, layer[c], layer[c-2])
					}
				}
			}
		}
		if len(pairs) != 0 {
			t.Fatalf("table %d: %d values beyond the last layer", lg, len(pairs))
		}
	}
	// The charged count is the power-of-two network's size: what each table
	// holds, and one size past the last table what the enumeration lists.
	for lg := 1; lg <= networkCacheMaxLg+1; lg++ {
		listed := len(batcherLayers(0, 1<<lg, 1, nil, func(pairs []int32) []int32 { return pairs })) / 2
		if lg <= networkCacheMaxLg && len(networkTable(lg))/2 != listed {
			t.Fatalf("table %d holds %d comparators, enumeration lists %d", lg, len(networkTable(lg))/2, listed)
		}
		if charged := mpc.SortCompareExchanges(1 << lg); listed != charged {
			t.Fatalf("2^%d wires: enumeration lists %d comparators, cost model charges %d", lg, listed, charged)
		}
	}
}

// TestCachedReplayMatchesFreshEnumeration: the table replay must execute
// comparators in exactly the enumeration's order — the leakage transcript
// and the sorted result depend on it — both on a first pass (which may build
// the table) and on the warm pass that replays it.
func TestCachedReplayMatchesFreshEnumeration(t *testing.T) {
	const n = 37 // uncommon non-power-of-two size
	want := referenceNetwork(n)
	for pass := 0; pass < 2; pass++ {
		if got := networkOf(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: table replay diverges from fresh enumeration (%d vs %d comparators)",
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
		batcherLayers(0, n, 1, nil, func(pairs []int32) []int32 {
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
// enumerated layer by layer into a scratch list instead of replayed from a
// table; the result must be the reference network's — the closure-driven,
// branching replay of the same enumeration — on keys heavy with (k, tag) ties.
func TestStreamingPathMatchesReference(t *testing.T) {
	const n = networkCacheMaxN + 808
	rng := rand.New(rand.NewSource(77))
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
	sortKeys(new(scratch), keys, nil, mpc.OpOther, 64)
	if _, _, ev1, _ := CacheStats(); ev1 != ev0+1 {
		t.Fatalf("n=%d did not take the streaming path (evictions %d -> %d)", n, ev0, ev1)
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("n=%d: streamed sort differs from the reference network", n)
	}
}

// TestCacheStatsMove: the counters behind the
// incshrink_core_comparator_cache_* gauges. A miss is a table build — one per
// size class per process, so two lengths sharing a class cost at most one —
// a hit is a replay whatever the length, an eviction is a streamed sort
// above networkCacheMaxN, and pairs is what the built tables retain: it
// moves only with a miss and never past the sum of all tables. (The tables
// are process-global and tests may repeat with -count, so the first
// observation adapts to whether the class is already built.)
func TestCacheStatsMove(t *testing.T) {
	const n, sibling = 1531, 1207 // both replay the 2^11-wire table
	h0, m0, e0, p0 := CacheStats()
	sortKeys(new(scratch), make([]sortKey, n), nil, mpc.OpOther, 64)
	h1, m1, _, p1 := CacheStats()
	switch {
	case m1 == m0+1 && h1 == h0:
		if want := int64(mpc.SortCompareExchanges(n)); p1 != p0+want {
			t.Fatalf("table build retained %d pairs, want %d", p1-p0, want)
		}
	case m1 == m0 && h1 == h0+1:
		if p1 != p0 {
			t.Fatalf("replay moved retained pairs %d -> %d", p0, p1)
		}
	default:
		t.Fatalf("first sort of n=%d: hits %d -> %d misses %d -> %d, want exactly one of them +1", n, h0, h1, m0, m1)
	}
	sortKeys(new(scratch), make([]sortKey, sibling), nil, mpc.OpOther, 64)
	sortKeys(new(scratch), make([]sortKey, n), nil, mpc.OpOther, 64)
	h2, m2, e2, p2 := CacheStats()
	if h2 != h1+2 || m2 != m1 || p2 != p1 {
		t.Fatalf("a new length in a built class and a repeat: hits %d -> %d misses %d -> %d pairs %d -> %d, want two hits and nothing else",
			h1, h2, m1, m2, p1, p2)
	}
	if e2 != e0 {
		t.Fatalf("sorts below networkCacheMaxN streamed: evictions %d -> %d", e0, e2)
	}
	bound := int64(0)
	for lg := 1; lg <= networkCacheMaxLg; lg++ {
		bound += int64(mpc.SortCompareExchanges(1 << lg))
	}
	if m2 > networkCacheMaxLg || p2 > bound {
		t.Fatalf("%d builds retaining %d pairs, bound %d builds and %d pairs", m2, p2, networkCacheMaxLg, bound)
	}
}

// BenchmarkSortVaryingLengths sorts 512 distinct lengths per iteration, drawn
// once from a fixed seed in 1,100..4,000 — the range the cache of the CPDB
// sDPANT deployment visits, where nearly every synchronisation brings a
// length the process has not sorted before. It reports the cost per executed
// comparator and fails if, once the counting pass below has touched every
// length, a sort builds a table or allocates: every length must be a replay.
func BenchmarkSortVaryingLengths(b *testing.B) {
	rng := rand.New(rand.NewSource(103))
	lengths := rng.Perm(2901)[:512]
	keys := make([]sortKey, 4000)
	for i := range keys {
		keys[i] = sortKey{k: rng.Uint64(), w: uint64(i)}
	}
	comparators, ws := 0, new(scratch)
	for i := range lengths {
		lengths[i] += 1100
		forEachLayer(ws, 0, lengths[i], 0, func(layer []int32) { comparators += len(layer) / 2 })
	}
	_, m0, _, _ := CacheStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range lengths {
			sortKeys(ws, keys[:n], nil, mpc.OpOther, 64)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*comparators), "ns/comparator")
	if _, m1, _, _ := CacheStats(); m1 != m0 {
		b.Fatalf("warm sorts built %d tables", m1-m0)
	}
	if perSort := (ms1.Mallocs - ms0.Mallocs) / uint64(b.N*len(lengths)); perSort != 0 {
		b.Fatalf("warm sorts allocate %d times each", perSort)
	}
}
