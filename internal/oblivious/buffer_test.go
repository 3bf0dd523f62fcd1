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
			b.AppendDummy()
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
// kernel, gather — must leave every column in exactly the order the
// closure-driven reference network produces over entries, ties included:
// the invariant behind the byte-identical goldens and snapshots.
func TestSortBufferMatchesEntrySort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		es := randEntries(rng, rng.Intn(150)) // the index column tells tied slots apart
		b := bufferOf(es)
		refSort(es, byIsViewFirst)
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
	one.AppendDummy()
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
	b.AppendDummy()
	if got := b.Truncate(99); got != 0 || b.Len() != 2 {
		t.Errorf("oversized truncate: dropped=%d len=%d", got, b.Len())
	}
	if got := b.Truncate(-3); got != 1 || b.Len() != 0 || b.Real() != 0 {
		t.Errorf("negative truncate: dropped=%d len=%d real=%d", got, b.Len(), b.Real())
	}
}

func TestAppendJoinConcatenates(t *testing.T) {
	b := NewBuffer(4, 0)
	b.AppendJoin(table.Row{1, 2}, table.Row{3, 4})
	if !b.Row(0).Equal(table.Row{1, 2, 3, 4}) {
		t.Errorf("join row = %v", b.Row(0))
	}
	if !b.IsReal(0) || b.Real() != 1 {
		t.Errorf("join slot not real: %+v real=%d", entriesOf(b)[0], b.Real())
	}
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
// tpcds shape — a 104-row block merged into a 936-row carry — with dst, sorted
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
	dst, sorted := NewBuffer(4, 0), NewBuffer(3, 0)
	keep := func(table.Row) bool { return true }
	run := func() {
		dst.Reset()
		sorted.Reset()
		MergeJoinInto(dst, sorted, in, 936, 0, keep, nil, 1, nil, mpc.OpTransform)
	}
	run() // warm dst's workspace, both arenas and the network tables
	if avg := testing.AllocsPerRun(100, run); avg > warmAllocs {
		t.Errorf("MergeJoinInto allocates %.1f/op warm, want <= %v", avg, warmAllocs)
	}
	if dst.Len() != len(rows) || sorted.Len() != len(rows) {
		t.Errorf("join emitted %d slots and %d sorted rows, want %d of each", dst.Len(), sorted.Len(), len(rows))
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
