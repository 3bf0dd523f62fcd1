package oblivious

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/table"
)

// lastPhases memoizes, per half width P, the last phase (p = P) of the
// textbook network on 2P wires: the tail of forEachComparator(2P) that
// mpc.MergeCompareExchanges says a merge is charged.
var lastPhases = map[int][]int32{}

func lastPhase(P int) []int32 {
	if tail, ok := lastPhases[P]; ok {
		return tail
	}
	all := referenceNetwork(2 * P)
	tail := all[len(all)-2*mpc.MergeCompareExchanges(P, P):]
	lastPhases[P] = tail
	return tail
}

// referenceMerge is the comparator sequence a merge of runs m and f must
// execute, from the textbook walk: the last phase on 2P wires, P the power of
// two >= both runs, restricted to the wires [P-m, P+f) the runs occupy.
func referenceMerge(m, f int) (want []int32, P int) {
	for P = 1; P < max(m, f); P <<= 1 {
	}
	tail := lastPhase(P)
	if tail[0] != 0 || tail[1] != int32(P) {
		panic("the tail of the textbook walk does not start at the last phase")
	}
	for c := 0; c < len(tail); c += 2 {
		if int(tail[c]) >= P-m && int(tail[c+1]) < P+f {
			want = append(want, tail[c], tail[c+1])
		}
	}
	return want, P
}

// mergeNetworkOf collects the pairs mergeKeys hands to exchange for runs of
// m and f elements.
func mergeNetworkOf(m, f int) []int32 {
	_, P := referenceMerge(m, f)
	got := []int32{}
	lp := 0
	for 1<<lp < P {
		lp++
	}
	forEachLayer(new(scratch), P-m, P+f, lp, func(layer []int32) { got = append(got, layer...) })
	return got
}

// tieHeavyRuns draws two sorted runs over a small key space, so nearly every
// comparator meets a (k, tag) tie somewhere; w carries tag and position, the
// permutation the kernel must reproduce.
func tieHeavyRuns(rng *rand.Rand, m, f int) []sortKey {
	keys := make([]sortKey, m+f)
	for i := range keys {
		keys[i] = sortKey{k: uint64(rng.Intn(7)), w: uint64(rng.Intn(2))<<32 | uint64(i)}
	}
	byOrder := func(a, b sortKey) int {
		if a.k != b.k {
			return int(a.k) - int(b.k)
		}
		return int(a.w>>32) - int(b.w>>32)
	}
	slices.SortStableFunc(keys[:m], byOrder)
	slices.SortStableFunc(keys[m:], byOrder)
	return keys
}

func keysSorted(keys []sortKey) bool {
	return slices.IsSortedFunc(keys, func(a, b sortKey) int {
		switch {
		case a.k != b.k && a.k < b.k, a.k == b.k && a.w>>32 < b.w>>32:
			return -1
		case a.k == b.k && a.w>>32 == b.w>>32:
			return 0
		}
		return 1
	})
}

// TestMergeIsAWindowOfTheLastPhase pins what "sort once, merge thereafter"
// rests on. The comparators mergeKeys runs are, pair for pair and in order,
// the textbook last phase restricted to the wires the two runs occupy — one
// contiguous window of every layer of the retained table, or the same window
// streamed above the table limit — and running them on two sorted runs gives
// exactly what the branching textbook walk gives, tie permutation included.
// The window is contiguous because within a layer the low index ascends as
// well as the high one, checked for every layer of every table.
func TestMergeIsAWindowOfTheLastPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sizes := [][2]int{{936, 104}, {936, 832}, {864, 96}, {72, 8}, {1, 100}, {100, 1}, {1023, 1}, {1024, 1024},
		{4097, 96}} // the last streams: 2P = 16,384 wires is above networkCacheMaxN
	for m := 0; m <= 130; m++ {
		for f := 0; f <= 130; f++ {
			sizes = append(sizes, [2]int{m, f})
		}
	}
	for _, mf := range sizes {
		m, f := mf[0], mf[1]
		keys := tieHeavyRuns(rng, m, f)
		if m == 0 || f == 0 {
			before := slices.Clone(keys)
			meter := mpc.NewMeter(mpc.DefaultCostModel())
			mergeKeys(new(scratch), keys, m, meter, mpc.OpTransform, 64)
			if !reflect.DeepEqual(keys, before) || meter.TotalGates() != 0 {
				t.Fatalf("(%d, %d): merging with an empty run moved keys or charged %v gates", m, f, meter.TotalGates())
			}
			continue
		}
		want, P := referenceMerge(m, f)
		_, _, ev0, _ := CacheStats()
		got := mergeNetworkOf(m, f)
		if _, _, ev1, _ := CacheStats(); (ev1 != ev0) != (2*P > networkCacheMaxN) {
			t.Fatalf("(%d, %d): streamed = %v on %d wires", m, f, ev1 != ev0, 2*P)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("(%d, %d): merge runs %d comparators, the textbook last phase on its wires has %d",
				m, f, len(got)/2, len(want)/2)
		}
		ref := make([]sortKey, 2*P)
		copy(ref[P-m:], keys)
		for c := 0; c < len(want); c += 2 {
			a, b := ref[want[c]], ref[want[c+1]]
			if b.k < a.k || (b.k == a.k && b.w>>32 < a.w>>32) {
				ref[want[c]], ref[want[c+1]] = b, a
			}
		}
		mergeKeys(new(scratch), keys, m, nil, mpc.OpOther, 64)
		if !reflect.DeepEqual(keys, ref[P-m:P+f]) || !keysSorted(keys) {
			t.Fatalf("(%d, %d): merged keys differ from the textbook walk's, or are not sorted", m, f)
		}
	}
	if n := len(mergeNetworkOf(936, 104)) / 2; n != 4553 {
		t.Errorf("the default deployment's merge runs %d comparators, want 4,553", n)
	}

	for lg := 1; lg <= networkCacheMaxLg; lg++ {
		pairs := networkTable(lg)
		for lp := 0; lp < lg; lp++ {
			for lk := lp; lk >= 0; lk-- {
				layer := pairs[:2*layerCut(lp, lk, 1<<lg)]
				pairs = pairs[len(layer):]
				for c := 2; c < len(layer); c += 2 {
					if layer[c] <= layer[c-2] || layer[c+1]-layer[c] != 1<<lk {
						t.Fatalf("table %d layer (p=%d,k=%d): low index %d after %d, high %d",
							lg, 1<<lp, 1<<lk, layer[c], layer[c-2], layer[c+1])
					}
				}
			}
		}
	}
}

// TestMergeZeroOnePrinciple: a comparator network merges every pair of
// sorted runs iff it merges every pair of sorted 0/1 runs, and a sorted 0/1
// run is its count of zeros — so the check is exhaustive for every (m, f)
// with m+f <= 14 and cheap well beyond.
func TestMergeZeroOnePrinciple(t *testing.T) {
	for m := 1; m <= 40; m++ {
		for f := 1; f <= 40; f++ {
			for za := 0; za <= m; za++ {
				for zb := 0; zb <= f; zb++ {
					keys := make([]sortKey, m+f)
					for i := range keys {
						one := (i < m && i >= za) || (i >= m && i-m >= zb)
						keys[i] = sortKey{k: boolWord(one), w: uint64(i)}
					}
					mergeKeys(new(scratch), keys, m, nil, mpc.OpOther, 64)
					if !keysSorted(keys) {
						t.Fatalf("(%d, %d) with %d and %d zeros: not merged", m, f, za, zb)
					}
				}
			}
		}
	}
}

// TestMergeExtremeKeys: the join's keys are sign-flipped int64 columns, pads
// at the negative end; the merge must order the whole domain.
func TestMergeExtremeKeys(t *testing.T) {
	cols := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -3, -2, -1, 0, 0, 1, 2, 1 << 40, math.MaxInt64 - 1, math.MaxInt64, math.MaxInt64}
	for m := 1; m < len(cols); m++ {
		var keys []sortKey
		for i, c := range append(slices.Clone(cols[len(cols)-m:]), cols[:len(cols)-m]...) {
			keys = append(keys, sortKey{k: uint64(c) ^ signBit, w: uint64(i%2)<<32 | uint64(i)})
		}
		sortKeys(new(scratch), keys[:m], nil, mpc.OpOther, 64)
		sortKeys(new(scratch), keys[m:], nil, mpc.OpOther, 64)
		mergeKeys(new(scratch), keys, m, nil, mpc.OpOther, 64)
		if !keysSorted(keys) {
			t.Fatalf("m=%d: extreme keys not merged: %v", m, keys)
		}
	}
}

// TestWarmMergeAllocatesNothing: a merge replays windows of tables sorts of
// the same size class already built, in its caller's workspace — no table
// build, no retained pairs, no allocation — and is charged the padded last phase.
func TestWarmMergeAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	keys := tieHeavyRuns(rng, 936, 104)
	ws := new(scratch)
	mergeKeys(ws, slices.Clone(keys), 936, nil, mpc.OpOther, 64)
	_, m0, _, p0 := CacheStats()
	work := make([]sortKey, len(keys))
	meter := mpc.NewMeter(mpc.DefaultCostModel())
	allocs := testing.AllocsPerRun(50, func() {
		copy(work, keys)
		mergeKeys(ws, work, 936, meter, mpc.OpTransform, 64)
	})
	if _, m1, _, p1 := CacheStats(); m1 != m0 || p1 != p0 || allocs > warmAllocs {
		t.Errorf("warm merge: %v allocs, table builds %d -> %d, retained pairs %d -> %d", allocs, m0, m1, p0, p1)
	}
	meter = mpc.NewMeter(mpc.DefaultCostModel())
	copy(work, keys)
	mergeKeys(ws, work, 936, meter, mpc.OpTransform, 64)
	if got, want := meter.Gates(mpc.OpTransform), 10241*64*meter.Model().ANDGatesPerCompareExchangeBit; got != want {
		t.Errorf("a (936, 104) merge charged %v gates, want the padded last phase %v", got, want)
	}
}

// runsBuffer fills a buffer laid out as runs. Every slot carries its
// position, so slots are told apart byte for byte; each run draws its own
// real density, and a real-first run is stored in its stable real-first
// order, as a compaction or an earlier read leaves it.
func runsBuffer(rng *rand.Rand, runs []Run) (*Buffer, []entry) {
	var es []entry
	for _, r := range runs {
		p := rng.Float64()
		run := make([]entry, r.Len)
		for i := range run {
			run[i] = entry{Row: table.Row{int64(len(es) + i), rng.Int63n(100)}, IsView: rng.Float64() < p}
		}
		if r.RealFirst {
			stableRealFirst(run)
		}
		es = append(es, run...)
	}
	return bufferOf(es), es
}

// randomLayout draws 1–40 runs of 1–300 slots, raw and real-first mixed.
func randomLayout(rng *rand.Rand) []Run {
	runs := make([]Run, 1+rng.Intn(40))
	for i := range runs {
		runs[i] = Run{Len: 1 + rng.Intn(300), RealFirst: rng.Intn(2) == 0}
	}
	return runs
}

func layoutLen(runs []Run) int {
	n := 0
	for _, r := range runs {
		n += r.Len
	}
	return n
}

// TestMergeRealFirstMatchesStablePartition: over random layouts, merging the
// runs leaves the buffer, payloads included, in exactly the stable
// real-first partition of its slots — the order a full sort gives. The
// comparators executed are a function of the layout (two fillings of one
// layout execute the same number) and never exceed the full sort the read is
// charged, which the meter shows whatever the layout.
func TestMergeRealFirstMatchesStablePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		runs := randomLayout(rng)
		n := layoutLen(runs)
		var executed [2]int
		for fill := range executed {
			b, es := runsBuffer(rng, runs)
			meter := mpc.NewMeter(mpc.DefaultCostModel())
			executed[fill] = MergeRealFirst(b, runs, meter, mpc.OpShrink, 64)
			stableRealFirst(es)
			entriesEqual(t, entriesOf(b), es)
			if b.Real() != b.ScanReal() {
				t.Fatalf("layout %v: real counter %d, scan %d", runs, b.Real(), b.ScanReal())
			}
			want := float64(mpc.SortCompareExchanges(n)) * 64 * meter.Model().ANDGatesPerCompareExchangeBit
			if n <= 1 {
				want = 0
			}
			if got := meter.Gates(mpc.OpShrink); got != want {
				t.Fatalf("layout %v: charged %v gates, want the full sort's %v", runs, got, want)
			}
		}
		if executed[0] != executed[1] || executed[0] > mpc.SortCompareExchanges(n) {
			t.Fatalf("layout %v: executed %d and %d comparators, the full sort charges %d",
				runs, executed[0], executed[1], mpc.SortCompareExchanges(n))
		}
	}
}

// tenRuns is the tpcds_step layout: what the last read left, then ten
// compacted Transform batches.
var tenRuns = append([]Run{{105, true}}, slices.Repeat([]Run{{100, true}}, 10)...)

// TestMergeRealFirstLayouts pins the comparators a read executes on the
// cache layouts the benchmark workloads meet: cpdb's 1,116-slot remainder
// plus a 1,000-slot batch, tpcds_batch's 200 plus an 832-slot merged batch,
// and tpcds_step's ten batches. Each read is charged the full sort,
// 139,263, 58,367 and 58,367 comparators. A cache that is one real-first run
// executes nothing and is not moved.
func TestMergeRealFirstLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, tc := range []struct {
		name string
		runs []Run
		want int
	}{
		{"cpdb", []Run{{1116, true}, {1000, true}}, 10869},
		{"tpcds_batch", []Run{{200, true}, {832, true}}, 4669},
		{"tpcds_step", tenRuns, 16861},
		{"one real-first run", []Run{{2116, true}}, 0},
	} {
		b, es := runsBuffer(rng, tc.runs)
		got := MergeRealFirst(b, tc.runs, nil, mpc.OpShrink, 64)
		stableRealFirst(es)
		entriesEqual(t, entriesOf(b), es)
		if got != tc.want {
			t.Errorf("%s: %d comparators, want %d (the full sort charges %d)",
				tc.name, got, tc.want, mpc.SortCompareExchanges(layoutLen(tc.runs)))
		}
	}
}

// TestMergeRealFirstOneRawRun: a buffer that is one raw run is sorted whole —
// exactly SortRealFirst, the sorting network's comparators included.
func TestMergeRealFirstOneRawRun(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{0, 1, 2, 37, 1024, 1040, 2116} {
		b, es := randBuffer(rng, n)
		ref := bufferOf(es)
		SortRealFirst(ref, nil, mpc.OpShrink, 64)
		got := MergeRealFirst(b, []Run{{Len: n}}, nil, mpc.OpShrink, 64)
		entriesEqual(t, entriesOf(b), entriesOf(ref))
		want := 0
		if n > 1 {
			want = len(networkOf(n)) / 2
		}
		if got != want {
			t.Errorf("n=%d: one raw run executed %d comparators, the sorting network has %d", n, got, want)
		}
	}
}

// TestMergeRealFirstRejectsBadLayout: runs that do not cover the buffer are a
// caller's bug, not something to sort around.
func TestMergeRealFirstRejectsBadLayout(t *testing.T) {
	b, _ := randBuffer(rand.New(rand.NewSource(26)), 10)
	defer func() {
		if recover() == nil {
			t.Error("runs covering 9 of 10 slots did not panic")
		}
	}()
	MergeRealFirst(b, []Run{{Len: 4}, {Len: 5, RealFirst: true}}, nil, mpc.OpShrink, 64)
}

// TestWarmMergeRealFirstAllocatesNothing: a warm read of the cpdb layout —
// keys, run ends, merge wires and gather arena all in the buffer's
// workspace — makes no allocation.
func TestWarmMergeRealFirstAllocatesNothing(t *testing.T) {
	runs := []Run{{1116, true}, {1000, false}}
	base, _ := runsBuffer(rand.New(rand.NewSource(27)), runs)
	b := NewBuffer(base.Arity(), 0)
	meter := mpc.NewMeter(mpc.DefaultCostModel())
	read := func() {
		b.Reset()
		b.AppendAll(base)
		MergeRealFirst(b, runs, meter, mpc.OpShrink, 64)
	}
	read()
	if allocs := testing.AllocsPerRun(50, read); allocs > warmAllocs {
		t.Errorf("warm MergeRealFirst: %v allocs, want %v", allocs, warmAllocs)
	}
}
