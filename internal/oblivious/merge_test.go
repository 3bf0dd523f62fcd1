package oblivious

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"incshrink/internal/mpc"
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
	perMerge := meter.Gates(mpc.OpTransform) / float64(meter.Calls(mpc.OpTransform))
	if want := 10241 * 64 * meter.Model().ANDGatesPerCompareExchangeBit; perMerge != want {
		t.Errorf("a (936, 104) merge charged %v gates, want the padded last phase %v", perMerge, want)
	}
}
