package oblivious

import (
	"cmp"
	"math/rand"
	"slices"
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
			b.Truncate(rng.Intn(b.Len() + 1))
		case 5:
			b.CutPrefix(rng.Intn(b.Len() + 1))
		case 6:
			other, _ := randBuffer(rng, rng.Intn(10))
			b.AppendAll(other)
		case 7:
			SortRealFirst(b, nil, mpc.OpOther, 64)
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
		SortRealFirst(b, nil, mpc.OpOther, 64)
		entriesEqual(t, entriesOf(b), es)
	}
}

func TestSortBufferChargesLikeEntrySort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b, _ := randBuffer(rng, 24)
	m := mpc.NewMeter(mpc.DefaultCostModel())
	SortRealFirst(b, m, mpc.OpShrink, 128)
	want := float64(mpc.SortCompareExchanges(24)) * 128 * m.Model().ANDGatesPerCompareExchangeBit
	if got := m.Gates(mpc.OpShrink); got != want {
		t.Errorf("charged %v gates, want %v", got, want)
	}
	// Tiny buffers charge nothing.
	m.Reset()
	one := NewBuffer(2, 0)
	one.AppendDummies(1)
	SortRealFirst(one, m, mpc.OpShrink, 128)
	if m.TotalGates() != 0 {
		t.Error("n=1 sort should be free")
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
		out, over := tightCompact(es, cap, nil, 64)
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

func TestTruncateClamps(t *testing.T) {
	b := NewBuffer(2, 0)
	b.AppendRow(table.Row{1, 2})
	b.AppendDummies(1)
	if got := b.Truncate(99); got != 0 || b.Len() != 2 {
		t.Errorf("oversized truncate: dropped=%d len=%d", got, b.Len())
	}
	if got := b.Truncate(-3); got != 1 || b.Len() != 0 || b.Real() != 0 {
		t.Errorf("negative truncate: dropped=%d len=%d real=%d", got, b.Len(), b.Real())
	}
}

// TestAppendDummiesOverRecycledStorage: dummies padded into storage a
// truncation freed are zero rows flagged dummy, and leave the real count be.
func TestAppendDummiesOverRecycledStorage(t *testing.T) {
	b := NewBuffer(2, 0)
	for i := range 6 {
		b.AppendRow(table.Row{int64(i + 1), 7})
	}
	b.Truncate(2)
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
	SortRealFirst(b, nil, mpc.OpOther, 64) // warm the workspace and the network table
	avg := testing.AllocsPerRun(100, func() {
		SortRealFirst(b, nil, mpc.OpOther, 64)
	})
	if avg > warmAllocs {
		t.Errorf("SortRealFirst allocates %.1f/op warm, want <= %v", avg, warmAllocs)
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

// TestMergeJoinIntoSteadyStateAllocs holds the join the engine runs, at the
// tpcds shape — a 104-row block merged into a 936-row carry — with dst, next
// and in reused as core.Framework reuses them.
func TestMergeJoinIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := make([]table.Row, 936+104)
	for i := range rows {
		rows[i] = table.Row{rng.Int63n(2880), int64(i), int64(rng.Intn(2))} // {key, payload, tag}
	}
	slices.SortFunc(rows[:936], func(a, b table.Row) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[2], b[2])) })
	in := NewBuffer(3, len(rows))
	for _, r := range rows {
		in.AppendRow(r)
	}
	dst, next := NewBuffer(4, 0), NewBuffer(3, 0)
	keep := func(table.Row) bool { return true }
	run := func() {
		dst.Reset()
		next.Reset()
		MergeJoinInto(dst, next, in, 936, 0, keep, nil, 1, nil, mpc.OpTransform)
	}
	run() // warm dst's workspace, both arenas and the network tables
	if avg := testing.AllocsPerRun(100, run); avg > warmAllocs {
		t.Errorf("MergeJoinInto allocates %.1f/op warm, want <= %v", avg, warmAllocs)
	}
	if dst.Len() != len(rows) || next.Len() != len(rows) {
		t.Errorf("join emitted %d slots and retired to %d rows, want %d of each", dst.Len(), next.Len(), len(rows))
	}
}

func TestTightCompactIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src, _ := randBuffer(rng, 256)
	dst, over := NewBuffer(2, 0), NewBuffer(2, 0)
	avg := testing.AllocsPerRun(100, func() {
		dst.Reset()
		over.Reset()
		TightCompactInto(src, 64, dst, over, nil, mpc.OpTransform, 64)
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
		SortRealFirst(work, nil, mpc.OpOther, 64)
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

// TestMergeJoinRetiresInJoinOrder: the rows keep selects reach next in (key,
// tag) order, each exactly once, behind nothing — whatever the union's ties —
// and the emitted slots land on dst behind what it already held.
func TestMergeJoinRetiresInJoinOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	byKeyTag := func(a, b table.Row) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[2], b[2])) }
	for trial := range 40 {
		m, f := rng.Intn(60), 1+rng.Intn(20)
		rows := make([]table.Row, m+f)
		for i := range rows {
			rows[i] = table.Row{rng.Int63n(12) - 6, int64(i), rng.Int63n(2), rng.Int63n(3)} // {key, payload, tag, block}
		}
		slices.SortStableFunc(rows[:m], byKeyTag)
		in := NewBuffer(4, 0)
		for _, r := range rows {
			in.AppendRow(r)
		}
		dst, next := NewBuffer(4, 0), NewBuffer(4, 0)
		dst.AppendRow(table.Row{9, 9, 9, 9})
		keep := func(r table.Row) bool { return r[3] != 0 }
		MergeJoinInto(dst, next, in, m, 0, keep, nil, 2, nil, mpc.OpTransform)

		if dst.Len() != 1+2*len(rows) || !dst.Row(0).Equal(table.Row{9, 9, 9, 9}) {
			t.Fatalf("trial %d: dst holds %d slots starting %v, want the old slot then %d", trial, dst.Len(), dst.Row(0), 2*len(rows))
		}
		var want []table.Row
		for _, r := range rows {
			if keep(r) {
				want = append(want, r)
			}
		}
		got := make([]table.Row, next.Len())
		for i := range got {
			got[i] = next.Row(i)
			if i > 0 && byKeyTag(got[i-1], got[i]) > 0 {
				t.Fatalf("trial %d: next row %d %v follows %v out of (key, tag) order", trial, i, got[i], got[i-1])
			}
		}
		byPayload := func(a, b table.Row) int { return cmp.Compare(a[1], b[1]) }
		slices.SortFunc(got, byPayload)
		slices.SortFunc(want, byPayload)
		if !slices.EqualFunc(got, want, table.Row.Equal) || next.Real() != len(want) {
			t.Fatalf("trial %d: next holds %v (%d real), want the kept rows %v", trial, got, next.Real(), want)
		}
	}
}

// BenchmarkMergeJoinCarry is the join as the engine runs it at the tpcds_step
// shape: a 104-row block sorted and merged into a 936-row carry, the omega = 1
// scan emitting onto dst, and the carry retired in that scan — the oldest of
// the ten blocks lapses, so next holds the 936 rows that stay. It fails if a
// warm call allocates.
func BenchmarkMergeJoinCarry(b *testing.B) {
	rng := rand.New(rand.NewSource(103))
	rows := make([]table.Row, 936+104)
	for i := range rows {
		rows[i] = table.Row{rng.Int63n(2880), rng.Int63n(10), int64(i % 13 / 12), int64(i / 104)} // {key, time, tag, block}
	}
	slices.SortStableFunc(rows[:936], func(a, b table.Row) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[2], b[2])) })
	in := NewBuffer(4, len(rows))
	for _, r := range rows {
		in.AppendRow(r)
	}
	within := func(l, r Record) bool { return r.Row[1] >= l.Row[1] }
	keep := func(r table.Row) bool { return r[3] > 0 }
	dst, next := NewBuffer(4, 0), NewBuffer(4, 0)
	join := func() {
		dst.Reset()
		next.Reset()
		MergeJoinInto(dst, next, in, 936, 0, keep, within, 1, nil, mpc.OpTransform)
	}
	join()
	if allocs := testing.AllocsPerRun(10, join); allocs != 0 {
		b.Fatalf("a warm join allocates %v times", allocs)
	}
	if dst.Len() != len(rows) || next.Len() != 936 {
		b.Fatalf("join emitted %d slots and retired to %d rows, want %d and 936", dst.Len(), next.Len(), len(rows))
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
		TightCompactInto(src, 128, dst, over, nil, mpc.OpTransform, 64)
	}
}
