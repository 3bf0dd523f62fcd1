package oblivious

import (
	"cmp"
	"math/rand"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/table"
)

func TestBufferRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	es := randEntries(rng, 37)
	b := bufferOf(es)
	if b.Len() != 37 || b.Arity() != 2 {
		t.Fatalf("len=%d arity=%d", b.Len(), b.Arity())
	}
	entriesEqual(t, entriesOf(b), es)
	if b.Real() != countReal(es) || b.Real() != b.ScanReal() {
		t.Fatalf("real=%d scan=%d want %d", b.Real(), b.ScanReal(), countReal(es))
	}
}

func TestBufferMutationsMaintainRealCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := NewBuffer(2, 0)
	check := func(op string) {
		t.Helper()
		if b.Real() != b.ScanReal() {
			t.Fatalf("after %s: counter %d != scan %d", op, b.Real(), b.ScanReal())
		}
	}
	for i := 0; i < 500; i++ {
		switch rng.Intn(8) {
		case 0:
			b.AppendRow(table.Row{rng.Int63n(50), 1})
		case 1:
			b.AppendDummies(1)
		case 2:
			b.AppendSlot(table.Row{7, 8}, rng.Intn(2) == 0, 0, 0)
		case 3:
			other, _ := randBuffer(rng, 1+rng.Intn(10))
			b.AppendFrom(other, rng.Intn(other.Len()))
		case 4:
			MergeRealFirst(b, []Run{{Len: b.Len()}}, rng.Intn(b.Len()+2)-1)
		case 5:
			b.CutPrefix(rng.Intn(b.Len() + 1))
		case 6:
			other, _ := randBuffer(rng, rng.Intn(10))
			b.AppendAll(other)
		case 7:
			sortRealFirst(b)
		}
		check("op")
	}
}

// TestSortBufferMatchesEntrySort: the buffer sort — key extraction, packed-key
// kernel, gather — must leave every column, payload included, in exactly the
// stable real-first partition of the entries: reals in input order, then
// dummies in input order. The order is total, so this is the only correct
// output, whatever network or run layout computes it.
func TestSortBufferMatchesEntrySort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		es := randEntries(rng, rng.Intn(150)) // the index column tells the slots apart
		b := bufferOf(es)
		stableRealFirst(es)
		sortRealFirst(b)
		entriesEqual(t, entriesOf(b), es)
	}
}

// TestSortBufferChargesLikeEntrySort: below a power of two the buffer sort
// executes the same comparators as the key sort over as many slots, never
// more than ChargeSort prices for that length, and a one-slot buffer runs
// nothing and is charged nothing.
func TestSortBufferChargesLikeEntrySort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b, _ := randBuffer(rng, 24)
	ran, keys := sortRealFirst(b), sortKeys(new(scratch), keysOf(randVals(rng, 24)))
	m := newMeter()
	m.ChargeSort(mpc.OpShrink, 24, 128)
	worth := float64(ran) * 128 * m.Model().ANDGatesPerCompareExchangeBit
	if got := m.Gates(mpc.OpShrink); ran != keys || ran == 0 || worth > got {
		t.Errorf("executed %d (buffer) and %d (keys) comparators, worth %v gates; ChargeSort charged %v", ran, keys, worth, got)
	}
	one := NewBuffer(2, 0)
	one.AppendDummies(1)
	m = newMeter()
	m.ChargeSort(mpc.OpShrink, 1, 128)
	if sortRealFirst(one) != 0 || m.Gates(mpc.OpShrink) != 0 {
		t.Error("n=1 sort should execute nothing and be free")
	}
}

// TestTightCompactIntoMatchesEntryForm: compaction keeps the real entries in
// input order — the first cap into the output, the rest into overflow — and
// pads the output to exactly cap with dummies.
func TestTightCompactIntoMatchesEntryForm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		es := randEntries(rng, 40)
		cap := rng.Intn(50)
		var wantOut, wantOver []entry
		for _, e := range es {
			switch {
			case !e.IsView:
			case len(wantOut) < cap:
				wantOut = append(wantOut, e)
			default:
				wantOver = append(wantOver, e)
			}
		}
		for len(wantOut) < cap {
			wantOut = append(wantOut, dummy(2))
		}
		out, over := tightCompact(es, cap)
		entriesEqual(t, out, wantOut)
		entriesEqual(t, over, wantOver)
	}
}

func TestCountBufferMatchesEntryForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	es := randEntries(rng, 33)
	pred := func(r table.Row) bool { return r[0] < 40 }
	want := 0
	for _, e := range es {
		if e.IsView && pred(e.Row) {
			want++
		}
	}
	b := bufferOf(es)
	m := mpc.NewMeter(mpc.DefaultCostModel())
	if got := CountBuffer(b, pred, m, mpc.OpQuery); got != want {
		t.Errorf("CountBuffer = %d, want %d", got, want)
	}
	if m.Gates(mpc.OpQuery) <= 0 {
		t.Error("count charged nothing")
	}
}

// TestMergeRealFirstClampsKeep: keep is clamped to [0, Len] — an oversized
// keep must never reslice into retained capacity, which would resurrect stale
// slots, and a negative one keeps nothing.
func TestMergeRealFirstClampsKeep(t *testing.T) {
	b := NewBuffer(2, 0)
	b.AppendDummies(1)
	b.AppendRow(table.Row{1, 2})
	runs := []Run{{Len: 2}}
	if MergeRealFirst(b, runs, 99); b.Len() != 2 || b.Real() != 1 || !b.IsReal(0) {
		t.Errorf("oversized keep: len=%d real=%d, slot 0 real %v", b.Len(), b.Real(), b.IsReal(0))
	}
	if MergeRealFirst(b, runs, -3); b.Len() != 0 || b.Real() != 0 {
		t.Errorf("negative keep: len=%d real=%d", b.Len(), b.Real())
	}
}

// TestAppendDummiesOverRecycledStorage: dummies padded into storage a
// prefix cut freed are zero rows flagged dummy, and leave the real count be.
func TestAppendDummiesOverRecycledStorage(t *testing.T) {
	b := NewBuffer(2, 0)
	for i := range 6 {
		b.AppendRow(table.Row{int64(i + 1), 7})
	}
	b.CutPrefix(4)
	b.AppendDummies(3)
	b.AppendDummies(-1)
	b.AppendDummies(1)
	if b.Len() != 6 || b.Real() != 2 || b.ScanReal() != 2 {
		t.Fatalf("len=%d real=%d scanned=%d, want 6, 2, 2", b.Len(), b.Real(), b.ScanReal())
	}
	for i := 2; i < b.Len(); i++ {
		if b.IsReal(i) || !b.Row(i).Equal(table.Row{0, 0}) {
			t.Errorf("slot %d = %v real=%v, want a zero dummy", i, b.Row(i), b.IsReal(i))
		}
	}
}

// TestAppendJoinConcatenates: a join entry is the concatenation l||r, filled
// into a padded dummy slot (setJoin) that then counts as real.
func TestAppendJoinConcatenates(t *testing.T) {
	b := NewBuffer(4, 0)
	b.AppendDummies(2)
	b.setJoin(1, table.Row{1, 2}, table.Row{3, 4})
	if !b.Row(1).Equal(table.Row{1, 2, 3, 4}) || !b.Row(0).Equal(table.Row{0, 0, 0, 0}) {
		t.Errorf("join rows = %v, %v", b.Row(0), b.Row(1))
	}
	if b.IsReal(0) || !b.IsReal(1) || b.Real() != 1 {
		t.Errorf("join slot not real: %+v real=%d", entriesOf(b)[1], b.Real())
	}
	defer func() {
		if recover() == nil {
			t.Error("a join entry of the wrong arity did not panic")
		}
	}()
	b.setJoin(0, table.Row{1}, table.Row{2, 3, 4, 5})
}

// Allocation regressions: warm calls of the columnar operators must stay off
// the allocator — every intermediate is in the workspace of the buffer the
// operator mutates, so the bound is exactly zero, race detector or not.
const warmAllocs = 0

func TestSortBufferSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b, _ := randBuffer(rng, 512)
	sortRealFirst(b) // warm the workspace and the network table
	avg := testing.AllocsPerRun(100, func() {
		sortRealFirst(b)
	})
	if avg > warmAllocs {
		t.Errorf("a one-run MergeRealFirst allocates %.1f/op warm, want <= %v", avg, warmAllocs)
	}
}

func TestSMJIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows1 := make([]table.Row, 64)
	rows2 := make([]table.Row, 64)
	for i := range rows1 {
		rows1[i] = table.Row{int64(rng.Intn(16)), int64(i)}
		rows2[i] = table.Row{int64(rng.Intn(16)), int64(i)}
	}
	r1, r2 := mkRecords(rows1), mkRecords(rows2)
	dst := NewBuffer(4, 0)
	TruncatedSortMergeJoinInto(dst, r1, r2, 0, 0, nil, 4, nil, mpc.OpTransform) // warm dst arena
	avg := testing.AllocsPerRun(100, func() {
		dst.Reset()
		TruncatedSortMergeJoinInto(dst, r1, r2, 0, 0, nil, 4, nil, mpc.OpTransform)
	})
	if avg > warmAllocs {
		t.Errorf("TruncatedSortMergeJoinInto allocates %.1f/op warm, want <= %v", avg, warmAllocs)
	}
}

// tpcdsCarry drives a union the way the engine does at the tpcds_step shape:
// each call of join appends a 104-row block — 96 left rows, 8 right — and
// joins it with omega = 1, emitting onto dst, and once nine blocks are
// carried the same scan retires the oldest, so the union is back at 936
// rows. The blocks come round again from a pool of 16. It returns warm, after
// ten joins.
func tpcdsCarry(seed int64, match MatchFunc) (u *Union, dst *Buffer, join func()) {
	rng := rand.New(rand.NewSource(seed))
	blocks := make([][]table.Row, 16)
	for j := range blocks {
		for i := range 104 {
			blocks[j] = append(blocks[j], table.Row{rng.Int63n(2880), rng.Int63n(10), int64(i % 13 / 12), int64(j)}) // {key, time, tag, block}
		}
	}
	u, dst = NewUnion(4, 0), NewBuffer(4, 0)
	joins := 0
	join = func() {
		for _, r := range blocks[joins%len(blocks)] {
			u.Append(int(r[2]), r)
		}
		var cut [2]int
		if joins >= 9 {
			cut = [2]int{96, 8}
		}
		dst.Reset()
		MergeJoinInto(dst, u, [2]int{96, 8}, cut, match, 1)
		joins++
	}
	for range 10 {
		join()
	}
	return u, dst, join
}

// TestMergeJoinIntoSteadyStateAllocs holds the join the engine runs, at the
// tpcds shape — a 104-row block merged into a 936-row carry whose oldest
// block is retired — with dst and the union reused as core.Framework reuses
// them.
func TestMergeJoinIntoSteadyStateAllocs(t *testing.T) {
	u, dst, join := tpcdsCarry(11, nil)
	if avg := testing.AllocsPerRun(100, join); avg > warmAllocs {
		t.Errorf("MergeJoinInto allocates %.1f/op warm, want <= %v", avg, warmAllocs)
	}
	if dst.Len() != 1040 || u.Len() != 936 {
		t.Errorf("join emitted %d slots and retired to %d rows, want 1040 and 936", dst.Len(), u.Len())
	}
}

func TestTightCompactIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src, _ := randBuffer(rng, 256)
	dst, over := NewBuffer(2, 0), NewBuffer(2, 0)
	avg := testing.AllocsPerRun(100, func() {
		dst.Reset()
		over.Reset()
		TightCompactInto(src, 64, dst, over, nil, 0, 0)
	})
	if avg > warmAllocs {
		t.Errorf("TightCompactInto allocates %.1f/op warm, want <= %v", avg, warmAllocs)
	}
}

func BenchmarkSortBuffer1K(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	base, _ := randBuffer(rng, 1024)
	work := NewBuffer(2, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.Reset()
		work.AppendAll(base)
		sortRealFirst(work)
	}
}

// BenchmarkJoinSort1040 is the join at the tpcds padded size — a 960-record
// left window against 80 on the right, one 1,040-key sort plus the scan —
// the shape one Advance spends most of its time in.
func BenchmarkJoinSort1040(b *testing.B) {
	rng := rand.New(rand.NewSource(102))
	rows1 := make([]table.Row, 960)
	rows2 := make([]table.Row, 80)
	for i := range rows1 {
		rows1[i] = table.Row{rng.Int63n(2880), int64(i)}
	}
	for i := range rows2 {
		rows2[i] = table.Row{rng.Int63n(2880), int64(i)}
	}
	r1, r2 := mkRecords(rows1), mkRecords(rows2)
	dst := NewBuffer(4, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		TruncatedSortMergeJoinInto(dst, r1, r2, 0, 0, nil, 1, nil, mpc.OpTransform)
	}
}

// TestMergeJoinRetiresInJoinOrder: a join leaves each side of the union
// holding the rows behind its cut, in arrival order, and the union's keys in
// (key, tag) order, each naming a row that carries its (key, tag) and every
// row named once — whatever the union's ties — and the emitted slots land on
// dst behind what it already held.
func TestMergeJoinRetiresInJoinOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := range 40 {
		u := NewUnion(4, 0)
		var arrived [2][]table.Row
		appendBlock := func(n, block int) (fresh [2]int) {
			for range n {
				s := rng.Intn(2)
				r := table.Row{rng.Int63n(12) - 6, int64(len(arrived[0]) + len(arrived[1])), int64(s), int64(block)} // {key, payload, tag, block}
				u.Append(s, r)
				arrived[s] = append(arrived[s], r)
				fresh[s]++
			}
			return fresh
		}
		// Two blocks joined into the union, then a third appended and joined
		// while the first lapses.
		gone := appendBlock(rng.Intn(30), 0)
		more := appendBlock(rng.Intn(30), 1)
		dst := NewBuffer(4, 0)
		MergeJoinInto(dst, u, [2]int{gone[0] + more[0], gone[1] + more[1]}, [2]int{}, nil, 2)
		fresh := appendBlock(1+rng.Intn(20), 2)
		n := u.Len()
		dst.Reset()
		dst.AppendRow(table.Row{9, 9, 9, 9})
		MergeJoinInto(dst, u, fresh, gone, nil, 2)

		if dst.Len() != 1+2*n || !dst.Row(0).Equal(table.Row{9, 9, 9, 9}) {
			t.Fatalf("trial %d: dst holds %d slots starting %v, want the old slot then %d", trial, dst.Len(), dst.Row(0), 2*n)
		}
		var named [2][]bool
		for s, side := range u.Side {
			want := arrived[s][gone[s]:]
			for i := range side.Len() {
				if i >= len(want) || !side.Row(i).Equal(want[i]) {
					t.Fatalf("trial %d: side %d holds %d rows, want the %d behind its cut in arrival order", trial, s, side.Len(), len(want))
				}
			}
			named[s] = make([]bool, side.Len())
		}
		if u.Len() != len(named[0])+len(named[1]) {
			t.Fatalf("trial %d: %d keys over %d + %d rows", trial, u.Len(), len(named[0]), len(named[1]))
		}
		for j := range u.Len() {
			key, s, i := u.Key(j)
			if i >= len(named[s]) || named[s][i] {
				t.Fatalf("trial %d: key %d names row %d of side %d, absent or named twice", trial, j, i, s)
			}
			named[s][i] = true
			if r := u.Side[s].Row(i); r[0] != key || r[2] != int64(s) {
				t.Fatalf("trial %d: key %d is (%d, %d) but names %v", trial, j, key, s, r)
			}
			if j > 0 {
				if pk, ps, _ := u.Key(j - 1); cmp.Or(cmp.Compare(pk, key), cmp.Compare(ps, s)) > 0 {
					t.Fatalf("trial %d: key %d (%d, %d) follows (%d, %d)", trial, j, key, s, pk, ps)
				}
			}
		}
	}
}

// BenchmarkMergeJoinCarry is the join as the engine runs it at the tpcds_step
// shape (tpcdsCarry): a 104-row block sorted and merged into the 936 carried
// keys, the omega = 1 scan emitting onto dst and retiring the oldest of the
// ten blocks, whose rows each side then cuts. It fails if a warm call
// allocates.
func BenchmarkMergeJoinCarry(b *testing.B) {
	within := func(l, r Record) bool { return r.Row[1] >= l.Row[1] }
	u, dst, join := tpcdsCarry(103, within)
	if allocs := testing.AllocsPerRun(10, join); allocs != 0 {
		b.Fatalf("a warm join allocates %v times", allocs)
	}
	if dst.Len() != 1040 || u.Len() != 936 {
		b.Fatalf("join emitted %d slots and retired to %d rows, want 1040 and 936", dst.Len(), u.Len())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join()
	}
}

func BenchmarkSMJInto128(b *testing.B) {
	rng := rand.New(rand.NewSource(100))
	rows1 := make([]table.Row, 128)
	rows2 := make([]table.Row, 128)
	for i := range rows1 {
		rows1[i] = table.Row{int64(rng.Intn(32)), int64(i)}
		rows2[i] = table.Row{int64(rng.Intn(32)), int64(i)}
	}
	r1, r2 := mkRecords(rows1), mkRecords(rows2)
	dst := NewBuffer(4, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		TruncatedSortMergeJoinInto(dst, r1, r2, 0, 0, nil, 4, nil, mpc.OpTransform)
	}
}

func BenchmarkTightCompactInto(b *testing.B) {
	rng := rand.New(rand.NewSource(101))
	src, _ := randBuffer(rng, 512)
	dst, over := NewBuffer(2, 0), NewBuffer(2, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		over.Reset()
		TightCompactInto(src, 128, dst, over, nil, 0, 0)
	}
}
