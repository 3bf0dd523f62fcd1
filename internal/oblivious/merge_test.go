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
	forEachLayer(new(scratch), P-m, P+f, P+f, lp, func(layer []int32) { got = append(got, layer...) })
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
			if ran := mergeKeys(new(scratch), keys, m, len(keys)); !reflect.DeepEqual(keys, before) || ran != 0 {
				t.Fatalf("(%d, %d): merging with an empty run moved keys or executed %d comparators", m, f, ran)
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
		mergeKeys(new(scratch), keys, m, len(keys))
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

// TestMergeKeepCutsTheCone: a merge kept to its first keep outputs runs,
// on the table path and streamed alike, exactly the comparators of the full
// merge whose low wire is below keep+k-1 past the first (k the comparator's
// distance), and leaves those first keep keys exactly as the full merge does.
func TestMergeKeepCutsTheCone(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	sizes := [][2]int{{936, 104}, {1116, 1104}, {169, 104}, {4097, 96}, {96, 4097}, {1, 1}, {7, 9}}
	for range 60 {
		sizes = append(sizes, [2]int{1 + rng.Intn(300), 1 + rng.Intn(300)})
	}
	for _, mf := range sizes {
		m, f := mf[0], mf[1]
		full := tieHeavyRuns(rng, m, f)
		keys := slices.Clone(full)
		mergeKeys(new(scratch), full, m, len(full))
		all, P := referenceMerge(m, f)
		for _, keep := range []int{0, 1, 2, (m + f) / 3, m + f - 1, m + f, m + f + 5, 1 + rng.Intn(m+f)} {
			want := 0
			for c := 0; c < len(all); c += 2 {
				if k := int(all[c+1] - all[c]); int(all[c]) < P-m+keep+k-1 {
					want++
				}
			}
			got := slices.Clone(keys)
			if ran := mergeKeys(new(scratch), got, m, keep); ran != want {
				t.Fatalf("(%d, %d) keep %d: ran %d comparators, the cone holds %d", m, f, keep, ran, want)
			}
			if n := min(keep, m+f); !reflect.DeepEqual(got[:n], full[:n]) {
				t.Fatalf("(%d, %d) keep %d: the kept keys differ from the full merge's", m, f, keep)
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
					mergeKeys(new(scratch), keys, m, len(keys))
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
		sortKeys(new(scratch), keys[:m])
		sortKeys(new(scratch), keys[m:])
		mergeKeys(new(scratch), keys, m, len(keys))
		if !keysSorted(keys) {
			t.Fatalf("m=%d: extreme keys not merged: %v", m, keys)
		}
	}
}

// TestWarmMergeAllocatesNothing: a merge replays windows of tables sorts of
// the same size class already built, in its caller's workspace — no table
// build, no retained pairs, no allocation — and executes no more than the
// padded last phase its caller is priced at.
func TestWarmMergeAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	keys := tieHeavyRuns(rng, 936, 104)
	ws := new(scratch)
	mergeKeys(ws, slices.Clone(keys), 936, len(keys))
	_, m0, _, p0 := CacheStats()
	work := make([]sortKey, len(keys))
	allocs := testing.AllocsPerRun(50, func() {
		copy(work, keys)
		mergeKeys(ws, work, 936, len(work))
	})
	if _, m1, _, p1 := CacheStats(); m1 != m0 || p1 != p0 || allocs > warmAllocs {
		t.Errorf("warm merge: %v allocs, table builds %d -> %d, retained pairs %d -> %d", allocs, m0, m1, p0, p1)
	}
	copy(work, keys)
	if ran, priced := mergeKeys(ws, work, 936, len(work)), mpc.MergeCompareExchanges(936, 104); ran == 0 || ran > priced {
		t.Errorf("a (936, 104) merge executed %d comparators, priced at the padded last phase's %d", ran, priced)
	}
}

// runsBuffer fills a buffer laid out as runs, each run drawing its own real
// density (fillRuns).
func runsBuffer(rng *rand.Rand, runs []Run) (*Buffer, []entry) {
	return fillRuns(rng, runs, rng.Float64)
}

// fillRuns fills a buffer laid out as runs, each run's slots real with the
// probability density draws for it. Every slot carries its position, so
// slots are told apart byte for byte; a real-first run is stored in its
// stable real-first order, as a compaction or an earlier read leaves it.
func fillRuns(rng *rand.Rand, runs []Run, density func() float64) (*Buffer, []entry) {
	var es []entry
	for _, r := range runs {
		p := density()
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

// keepBounds are the keep bounds a layout is read at: the whole buffer (the
// full merge) first, then past it, nothing, one slot, fewer than the
// shortest run holds, and between the shortest run and the whole buffer.
func keepBounds(rng *rand.Rand, runs []Run) []int {
	n, shortest := layoutLen(runs), slices.MinFunc(runs, func(a, b Run) int { return a.Len - b.Len }).Len
	return []int{n, n + 1 + rng.Intn(10), 0, 1, rng.Intn(shortest), shortest + rng.Intn(n-shortest+1)}
}

// TestMergeRealFirstMatchesStablePartition: over random layouts and keep
// bounds, the merge leaves the buffer, payloads included, holding exactly the
// first keep slots of the stable real-first partition of its slots — the
// order a full sort gives, then cut. What it executes is a function of the
// layout and keep alone: a filling with no real slot, one with every slot
// real and a random one execute the same comparators and gather the same
// min(n, keep) slots, never more than the full merge (keep >= n) executes,
// which never exceeds the full sort the read is priced at.
func TestMergeRealFirstMatchesStablePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fillings := []func() float64{func() float64 { return 0 }, func() float64 { return 1 }, rng.Float64}
	for trial := 0; trial < 60; trial++ {
		runs := randomLayout(rng)
		n, full := layoutLen(runs), 0
		for _, keep := range keepBounds(rng, runs) {
			executed := make([]int, len(fillings))
			for fill, density := range fillings {
				b, es := fillRuns(rng, runs, density)
				executed[fill] = MergeRealFirst(b, runs, keep)
				stableRealFirst(es)
				entriesEqual(t, entriesOf(b), es[:min(keep, n)])
				if b.Real() != b.ScanReal() {
					t.Fatalf("layout %v, keep %d: real counter %d, scan %d", runs, keep, b.Real(), b.ScanReal())
				}
			}
			if keep == n {
				full = executed[0]
			}
			if slices.Max(executed) != executed[0] || slices.Min(executed) != executed[0] ||
				executed[0] > full || full > mpc.SortCompareExchanges(n) {
				t.Fatalf("layout %v, keep %d: fillings executed %v comparators, the full merge %d, the full sort is priced at %d",
					runs, keep, executed, full, mpc.SortCompareExchanges(n))
			}
		}
	}
}

// readLayouts are the cache layouts the benchmark workloads meet at seed 1,
// at a read keeping K slots: what the last read left, a real-first run, then
// one compacted Transform batch per step since. cpdb_query's sDPANT read
// fetches nothing at K = 12 + 1,116 (spill and prune bound); the tpcds reads
// keep K = size + 2 + 169 with size about 30. tpcds_batch's AdvanceBatch(8)
// appends 1,040 slots as merged windows of 104·w.
var readLayouts = []struct {
	name string
	runs []Run
	keep int
	full int // executed by the full merge, keep = n
	want int // executed at keep
}{
	{"cpdb", []Run{{1116, true}, {1104, true}}, 1128, 11609, 7045},
	{"tpcds_batch", []Run{{169, true}, {520, true}, {520, true}}, 200, 8772, 2025},
	{"tpcds_batch 312+728", []Run{{169, true}, {312, true}, {728, true}}, 200, 7819, 2025},
	{"tpcds_batch 104+832+104", []Run{{169, true}, {104, true}, {832, true}, {104, true}}, 200, 10794, 2767},
	{"tpcds_step", append([]Run{{169, true}}, slices.Repeat([]Run{{104, true}}, 10)...), 200, 18701, 8763},
	{"one real-first run", []Run{{2116, true}}, 2116, 0, 0},
}

// TestMergeRealFirstLayouts pins the comparators a read executes on the
// layouts the benchmark workloads meet (readLayouts), at their keep bound and
// merging everything: at the bound each merge runs only the comparators that
// reach a kept slot, so cpdb's read executes 7,045 of its full merge's
// 11,609. Each read is still charged the full sort, 139,263
// comparators for cpdb's 2,220 slots and 58,367 for the tpcds reads' 1,209. A
// cache that is one real-first run kept whole executes nothing and is not
// moved.
func TestMergeRealFirstLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, tc := range readLayouts {
		n := layoutLen(tc.runs)
		for _, c := range []struct{ keep, want int }{{n, tc.full}, {tc.keep, tc.want}} {
			b, es := runsBuffer(rng, tc.runs)
			got := MergeRealFirst(b, tc.runs, c.keep)
			stableRealFirst(es)
			entriesEqual(t, entriesOf(b), es[:c.keep])
			if got != c.want {
				t.Errorf("%s at keep %d: %d comparators, want %d (the full sort charges %d)",
					tc.name, c.keep, got, c.want, mpc.SortCompareExchanges(n))
			}
		}
	}
}

// TestMergeRealFirstOneRawRun: a buffer that is one raw run is sorted whole —
// into the stable real-first partition, by exactly the sorting network's
// comparators.
func TestMergeRealFirstOneRawRun(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{0, 1, 2, 37, 1024, 1040, 2116} {
		b, es := randBuffer(rng, n)
		got := MergeRealFirst(b, []Run{{Len: n}}, n)
		stableRealFirst(es)
		entriesEqual(t, entriesOf(b), es)
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
	MergeRealFirst(b, []Run{{Len: 4}, {Len: 5, RealFirst: true}}, 10)
}

// TestWarmMergeRealFirstAllocatesNothing: a warm read of the cpdb layout,
// its batch raw — keys, run ends, merge wires and gather arena all in the
// buffer's workspace — makes no allocation.
func TestWarmMergeRealFirstAllocatesNothing(t *testing.T) {
	runs := []Run{{1116, true}, {1104, false}}
	base, _ := runsBuffer(rand.New(rand.NewSource(27)), runs)
	b := NewBuffer(base.Arity(), 0)
	read := func() {
		b.Reset()
		b.AppendAll(base)
		MergeRealFirst(b, runs, 1128)
	}
	read()
	if allocs := testing.AllocsPerRun(50, read); allocs > warmAllocs {
		t.Errorf("warm MergeRealFirst: %v allocs, want %v", allocs, warmAllocs)
	}
}
