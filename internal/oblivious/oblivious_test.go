package oblivious

import (
	"math/rand"
	"sort"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/table"
)

// keysOf packs values as untagged sort keys, position in the low word.
func keysOf(vals []int64) []sortKey {
	keys := make([]sortKey, len(vals))
	for i, v := range vals {
		keys[i] = sortKey{k: uint64(v) ^ signBit, w: uint64(i)}
	}
	return keys
}

func keyVal(k sortKey) int64 { return int64(k.k ^ signBit) }

func randVals(rng *rand.Rand, n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(100)) - 50
	}
	return vals
}

func TestSortCorrectnessAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 65; n++ {
		keys := keysOf(randVals(rng, n))
		sortKeys(new(scratch), keys)
		for i := 1; i < n; i++ {
			if keyVal(keys[i]) < keyVal(keys[i-1]) {
				t.Fatalf("n=%d: not sorted at %d: %v > %v", n, i, keyVal(keys[i-1]), keyVal(keys[i]))
			}
		}
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		want := randVals(rng, rng.Intn(200))
		keys := keysOf(want)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sortKeys(new(scratch), keys)
		for i := range keys {
			if keyVal(keys[i]) != want[i] {
				t.Fatalf("trial %d: position %d = %d want %d", trial, i, keyVal(keys[i]), want[i])
			}
		}
	}
}

// TestSortDataIndependence: the comparators a sort executes must depend only
// on the input length, never on the values — the defining property of an
// oblivious sort. The kernel replays one comparator sequence per length, so the count
// is pinned twice: the list never exceeds the padded network the cost model
// prices (mpc.SortCompareExchanges counts the next power of two, which the
// executed network equals there), and the cache sort and the join sort
// execute exactly that list whatever the data.
func TestSortDataIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{5, 16, 33, 100, 1024, 1040} {
		got, priced := len(networkOf(n))/2, mpc.SortCompareExchanges(n)
		if got > priced || (n&(n-1) == 0 && got != priced) {
			t.Errorf("n=%d: network has %d comparators, cost model prices %d", n, got, priced)
		}
		counts := make(map[int]bool)
		for trial := 0; trial < 10; trial++ {
			b, _ := randBuffer(rng, n)
			counts[sortRealFirst(b)] = true
			counts[sortKeys(new(scratch), keysOf(randVals(rng, n)))] = true
		}
		if len(counts) != 1 || !counts[got] {
			t.Errorf("n=%d: executed %v comparators across inputs, want always %d", n, counts, got)
		}
	}
}

// TestSortChargesPaddedNetwork: the sort prices nothing itself (core's price
// list charges mpc.Meter.ChargeSort), so the charge is only right if the sort
// executes what ChargeSort prices: on a power of two the buffer sort and the
// key sort run exactly the padded network, and a one-slot input runs nothing
// and is charged nothing.
func TestSortChargesPaddedNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b, _ := randBuffer(rng, 8)
	ran, keys := sortRealFirst(b), sortKeys(new(scratch), keysOf(randVals(rng, 8)))
	m := newMeter()
	m.ChargeSort(mpc.OpShrink, 8, 128)
	want := float64(ran) * 128 * m.Model().ANDGatesPerCompareExchangeBit
	if got := m.Gates(mpc.OpShrink); ran != keys || got != want {
		t.Errorf("executed %d (buffer) and %d (keys) comparators, worth %v gates; ChargeSort charged %v", ran, keys, want, got)
	}
	b, _ = randBuffer(rng, 1)
	m = newMeter()
	m.ChargeSort(mpc.OpShrink, 1, 128)
	if ran, keys := sortRealFirst(b), sortKeys(new(scratch), keysOf([]int64{7})); ran+keys != 0 || m.Gates(mpc.OpShrink) != 0 {
		t.Error("n=1 sort should execute nothing and be free")
	}
}

func TestByIsViewFirstOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		b, es := randBuffer(rng, 50)
		sortRealFirst(b)
		if !sortedRealFirst(b.Flags()) {
			t.Fatal("reals not all ahead of dummies")
		}
		if b.Real() != countReal(es) || b.ScanReal() != countReal(es) {
			t.Fatal("sort changed the number of real entries")
		}
	}
}

// The cache read of Figure 3 is a real-first sort followed by a public
// prefix cut: whatever prefix is cut, it holds real slots before any dummy.
func TestCompactFetchesRealFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b, es := randBuffer(rng, 40)
	real := countReal(es)
	sortRealFirst(b)
	sorted := entriesOf(b)
	if fetched := sorted[:real]; countReal(fetched) != real {
		t.Errorf("fetched %d entries with %d real, want all real", len(fetched), countReal(fetched))
	}
	if rest := sorted[real:]; countReal(rest) != 0 {
		t.Errorf("rest still holds %d real entries", countReal(rest))
	}
	if len(sorted) != 40 || !table.MultisetEqual(realRowsOf(sorted), realRowsOf(es)) {
		t.Error("sort lost entries")
	}
}

func TestCompactPartialFetchKeepsRealPriority(t *testing.T) {
	// Fewer slots than real entries: everything fetched must be real.
	es := make([]entry, 20)
	for i := range es {
		es[i] = entry{Row: table.Row{int64(i)}, IsView: i%2 == 0} // 10 real
	}
	b := bufferOf(es)
	sortRealFirst(b)
	sorted := entriesOf(b)
	if got := countReal(sorted[:4]); got != 4 {
		t.Errorf("fetched %d real, want 4", got)
	}
	if got := countReal(sorted[4:]); got != 6 {
		t.Errorf("rest has %d real, want 6", got)
	}
}

func mkRecords(rows []table.Row) []Record {
	rs := make([]Record, len(rows))
	for i, r := range rows {
		rs[i] = Record{Row: r}
	}
	return rs
}

func TestSMJMatchesHashJoinWithLargeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n1, n2 := rng.Intn(30)+1, rng.Intn(30)+1
		rows1 := make([]table.Row, n1)
		rows2 := make([]table.Row, n2)
		for i := range rows1 {
			rows1[i] = table.Row{int64(rng.Intn(8)), int64(i)}
		}
		for i := range rows2 {
			rows2[i] = table.Row{int64(rng.Intn(8)), int64(100 + i)}
		}
		want := table.HashJoin(rows1, rows2, 0, 0)
		got := smj(mkRecords(rows1), mkRecords(rows2), nil, 1000, nil)
		if len(got) != 1000*(n1+n2) {
			t.Fatalf("padded output size %d, want %d", len(got), 1000*(n1+n2))
		}
		if !table.MultisetEqual(realRowsOf(got), want) {
			t.Fatalf("trial %d: SMJ real rows differ from hash join (%d vs %d)", trial, len(realRowsOf(got)), len(want))
		}
	}
}

func TestSMJOutputSizeDataIndependent(t *testing.T) {
	// Two inputs of identical sizes but totally different join selectivity
	// must produce identical output lengths.
	all := make([]table.Row, 10)
	none := make([]table.Row, 10)
	for i := range all {
		all[i] = table.Row{1, int64(i)}       // everything joins
		none[i] = table.Row{int64(i + 50), 0} // nothing joins
	}
	right := []table.Row{{1, 7}}
	a := smj(mkRecords(all), mkRecords(right), nil, 3, nil)
	b := smj(mkRecords(none), mkRecords(right), nil, 3, nil)
	if len(a) != len(b) {
		t.Errorf("output sizes %d vs %d differ with join selectivity", len(a), len(b))
	}
	if len(a) != 3*11 {
		t.Errorf("output size %d, want %d", len(a), 3*11)
	}
}

func TestSMJTruncationBoundsContribution(t *testing.T) {
	// One hot key on the left joining 20 right rows with bound 4: the left
	// record may contribute at most 4 entries and each right record at most
	// 4 (trivially 1 here).
	left := []table.Row{{5, 0}}
	right := make([]table.Row, 20)
	for i := range right {
		right[i] = table.Row{5, int64(i)}
	}
	got := smj(mkRecords(left), mkRecords(right), nil, 4, nil)
	real := realRowsOf(got)
	if len(real) != 4 {
		t.Errorf("hot record produced %d entries, want truncation to 4", len(real))
	}
}

func TestSMJPerRecordContributionNeverExceedsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		bound := rng.Intn(4) + 1
		rows1 := make([]table.Row, 25)
		rows2 := make([]table.Row, 25)
		for i := range rows1 {
			rows1[i] = table.Row{int64(rng.Intn(4)), int64(i)}
			rows2[i] = table.Row{int64(rng.Intn(4)), int64(i)}
		}
		got := smj(mkRecords(rows1), mkRecords(rows2), nil, bound, nil)
		// The second attribute of each side is the record's index, so an
		// output row {lkey, i, rkey, j} names the pair that produced it.
		perRecord := make(map[[2]int64]int)
		for _, e := range got {
			if e.IsView {
				perRecord[[2]int64{0, e.Row[1]}]++
				perRecord[[2]int64{1, e.Row[3]}]++
			}
		}
		for rec, c := range perRecord {
			if c > bound {
				t.Fatalf("bound=%d: record %d of side %d contributed %d entries", bound, rec[1], rec[0], c)
			}
		}
	}
}

// TestSMJStability verifies Eq. 3: removing any single input record changes
// the real output by at most `bound` rows.
func TestSMJStability(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	bound := 3
	rows1 := make([]table.Row, 12)
	rows2 := make([]table.Row, 12)
	for i := range rows1 {
		rows1[i] = table.Row{int64(rng.Intn(3)), int64(i)}
		rows2[i] = table.Row{int64(rng.Intn(3)), int64(i)}
	}
	full := len(realRowsOf(smj(mkRecords(rows1), mkRecords(rows2), nil, bound, nil)))
	for drop := 0; drop < len(rows2); drop++ {
		reduced := make([]table.Row, 0, len(rows2)-1)
		reduced = append(reduced, rows2[:drop]...)
		reduced = append(reduced, rows2[drop+1:]...)
		n := len(realRowsOf(smj(mkRecords(rows1), mkRecords(reduced), nil, bound, nil)))
		diff := full - n
		if diff < -bound || diff > bound {
			t.Fatalf("dropping record %d changed output by %d > bound %d", drop, diff, bound)
		}
	}
}

func TestSMJMatchPredicate(t *testing.T) {
	// Temporal join: only within-10 matches survive (the Q1 shape).
	sales := []table.Row{{1, 100}, {2, 100}}
	rets := []table.Row{{1, 105}, {2, 150}}
	within10 := func(l, r Record) bool { d := r.Row[1] - l.Row[1]; return d >= 0 && d <= 10 }
	got := realRowsOf(smj(mkRecords(sales), mkRecords(rets), within10, 5, nil))
	if len(got) != 1 {
		t.Fatalf("temporal join produced %d rows, want 1", len(got))
	}
	if got[0][0] != 1 {
		t.Errorf("wrong pair joined: %v", got[0])
	}
}

func TestSMJBoundClamped(t *testing.T) {
	got := smj(mkRecords([]table.Row{{1, 0}}), mkRecords([]table.Row{{1, 0}}), nil, 0, nil)
	if len(got) != 2 { // bound clamps to 1, output = 1*(1+1)
		t.Errorf("output size %d with clamped bound, want 2", len(got))
	}
}

// TestSMJChargesCosts: the reference join is the one operator that prices
// itself — one sort of the six-row union at the record plus its key, then the
// emit scan of bound slots per row at the output width.
func TestSMJChargesCosts(t *testing.T) {
	m := newMeter()
	rows := []table.Row{{1, 0}, {2, 0}, {3, 0}}
	smj(mkRecords(rows), mkRecords(rows), nil, 2, m)
	model := m.Model()
	want := float64(mpc.SortCompareExchanges(6))*64*3*model.ANDGatesPerCompareExchangeBit +
		float64(2*6)*64*4*model.ANDGatesPerScanBit
	if got := m.Gates(mpc.OpTransform); got != want {
		t.Errorf("SMJ charged %v gates, want %v", got, want)
	}
}

// TestJoinFreshPrefix pins the incremental form of the join: with
// fresh = (new1, new2), exactly the key-equal pairs with a left record among
// the first new1 or a right record among the first new2 come out, and the
// padded output size does not change.
func TestJoinFreshPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows1 := make([]table.Row, 12)
	rows2 := make([]table.Row, 9)
	for i := range rows1 {
		rows1[i] = table.Row{int64(rng.Intn(4)), int64(i)}
	}
	for i := range rows2 {
		rows2[i] = table.Row{int64(rng.Intn(4)), int64(100 + i)}
	}
	const bound = 1000 // untruncated
	for _, fresh := range [][2]int{{0, 0}, {3, 0}, {0, 2}, {3, 2}, {12, 9}} {
		var want []table.Row
		for i, l := range rows1 {
			for j, r := range rows2 {
				if l[0] == r[0] && (i < fresh[0] || j < fresh[1]) {
					want = append(want, table.Row{l[0], l[1], r[0], r[1]})
				}
			}
		}
		dst := NewBuffer(4, 0)
		TruncatedSortMergeJoinInto(dst, mkRecords(rows1), mkRecords(rows2), 0, 0, nil, bound, nil, mpc.OpTransform, fresh[0], fresh[1])
		got := entriesOf(dst)
		if !table.MultisetEqual(realRowsOf(got), want) {
			t.Errorf("fresh=%v: %d pairs, want %d", fresh, countReal(got), len(want))
		}
		if len(got) != bound*(len(rows1)+len(rows2)) {
			t.Errorf("fresh=%v: output size %d depends on the prefix lengths", fresh, len(got))
		}
	}
}

func TestCount(t *testing.T) {
	b := bufferOf([]entry{
		{Row: table.Row{1}, IsView: true},
		{Row: table.Row{1}, IsView: false}, // dummy never counts
		{Row: table.Row{2}, IsView: true},
	})
	m := newMeter()
	if got := CountBuffer(b, func(r table.Row) bool { return r[0] == 1 }, m, mpc.OpQuery); got != 1 {
		t.Errorf("CountBuffer = %d want 1", got)
	}
	if m.Gates(mpc.OpQuery) <= 0 {
		t.Error("count charged nothing")
	}
	empty := bufferOf(nil)
	if CountBuffer(empty, func(table.Row) bool { return true }, nil, mpc.OpQuery) != 0 {
		t.Error("empty count wrong")
	}
}

func TestDummyShape(t *testing.T) {
	b := NewBuffer(4, 0)
	b.AppendDummies(1)
	if d := entriesOf(b)[0]; d.IsView || !d.Row.Equal(make(table.Row, 4)) || b.Real() != 0 {
		t.Errorf("dummy slot = %+v", d)
	}
}
