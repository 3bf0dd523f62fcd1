package securearray

import (
	"math/rand"
	"slices"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/table"
)

// batch builds a padded batch of n slots, `real` of them real at random
// positions.
func batch(rng *rand.Rand, n, real int) *oblivious.Buffer {
	isReal := make([]int, n) // 0 = dummy, else 1 + the real tuple's rank
	for i, p := range rng.Perm(n)[:real] {
		isReal[p] = i + 1
	}
	b := oblivious.NewBuffer(2, n)
	for _, r := range isReal {
		if r == 0 {
			b.AppendDummy()
		} else {
			b.AppendSlot(table.Row{int64(r - 1), 1}, true, 0, 0)
		}
	}
	return b
}

// realRows copies out the payloads of b's real slots.
func realRows(b *oblivious.Buffer) []table.Row {
	var out []table.Row
	for i := 0; i < b.Len(); i++ {
		if b.IsReal(i) {
			out = append(out, b.Row(i).Clone())
		}
	}
	return out
}

// viewRealRows copies out the payloads of v's real slots.
func viewRealRows(v *View) []table.Row {
	cols := v.Columns()
	var out []table.Row
	for i := 0; i < v.Len(); i++ {
		if v.FlagByte(i) == 1 {
			row := make(table.Row, len(cols))
			for j, col := range cols {
				row[j] = col[i]
			}
			out = append(out, row)
		}
	}
	return out
}

// newCache builds an arity-2 cache like the test batches.
func newCache(tupleBits int, m *mpc.Meter) *Cache { return New(2, tupleBits, m) }

func TestCacheAppendAndCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := newCache(128, nil)
	c.Append(batch(rng, 10, 3))
	c.Append(batch(rng, 10, 5))
	if c.Len() != 20 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Real() != 8 {
		t.Errorf("Real = %d", c.Real())
	}
	if c.MaxLen() != 20 {
		t.Errorf("MaxLen = %d", c.MaxLen())
	}
	a, r, f := c.Stats()
	if a != 2 || r != 0 || f != 0 {
		t.Errorf("stats = %d %d %d", a, r, f)
	}
}

func TestCacheReadFetchesRealFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := newCache(128, nil)
	c.Append(batch(rng, 30, 12))
	got := NewView(2)
	c.ReadInto(got, 12)
	if got.Len() != 12 || got.Real() != 12 {
		t.Errorf("read %d slots, %d real; want 12 real", got.Len(), got.Real())
	}
	if c.Real() != 0 {
		t.Errorf("cache still holds %d real after exact read", c.Real())
	}
	if c.Len() != 18 {
		t.Errorf("cache len %d after read, want 18", c.Len())
	}
}

func TestCacheReadOverAndUnderSized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := newCache(128, nil)
	c.Append(batch(rng, 10, 4))
	// Positive noise: fetch more than real count -> dummies included.
	got := NewView(2)
	c.ReadInto(got, 7)
	if got.Len() != 7 || got.Real() != 4 {
		t.Errorf("oversized read: %d slots %d real", got.Len(), got.Real())
	}
	// Negative noise: fetch fewer than real -> deferred data remains.
	c2 := newCache(128, nil)
	c2.Append(batch(rng, 10, 4))
	got = NewView(2)
	c2.ReadInto(got, 2)
	if got.Real() != 2 || c2.Real() != 2 {
		t.Errorf("undersized read: fetched %d real, cache keeps %d", got.Real(), c2.Real())
	}
	// Read larger than cache clamps.
	got = NewView(2)
	c2.ReadInto(got, 100)
	if got.Len() != 8 {
		t.Errorf("clamped read returned %d slots, want remaining 8", got.Len())
	}
	if c2.Len() != 0 {
		t.Error("cache should be empty after clamped full read")
	}
	// A negative size clamps to an empty fetch that still counts as a read.
	c2.Append(batch(rng, 6, 3))
	got = NewView(2)
	c2.ReadInto(got, -3)
	if got.Len() != 0 || c2.Len() != 6 || got.Updates() != 1 {
		t.Errorf("negative read: fetched %d slots, cache keeps %d, %d view updates", got.Len(), c2.Len(), got.Updates())
	}
}

func TestCacheReadChargesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := mpc.NewMeter(mpc.DefaultCostModel())
	c := newCache(256, m)
	c.Append(batch(rng, 16, 5))
	c.ReadInto(NewView(2), 5)
	want := float64(mpc.SortCompareExchanges(16)) * 256 * m.Model().ANDGatesPerCompareExchangeBit
	if got := m.Gates(mpc.OpShrink); got != want {
		t.Errorf("read charged %v gates, want %v", got, want)
	}
}

func TestCacheFlushInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := newCache(128, nil)
	v := NewView(2)
	c.Append(batch(rng, 50, 6))
	fetched, lost := c.FlushInto(v, 10)
	if fetched != 10 || v.Len() != 10 {
		t.Errorf("flush fetched %d (view len %d), want 10", fetched, v.Len())
	}
	if v.Real() != 6 {
		t.Errorf("flush fetched %d real, want all 6", v.Real())
	}
	if lost != 0 {
		t.Errorf("flush lost %d real tuples, want 0", lost)
	}
	if c.Len() != 0 {
		t.Error("flush must empty the cache")
	}
	_, _, f := c.Stats()
	if f != 1 {
		t.Errorf("flush counter = %d", f)
	}
	if v.Updates() != 1 {
		t.Errorf("view updates = %d, want 1", v.Updates())
	}
}

func TestCacheFlushReportsLostReal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := newCache(128, nil)
	c.Append(batch(rng, 20, 9))
	_, lost := c.FlushInto(NewView(2), 5) // undersized flush: 4 real recycled
	if lost != 4 {
		t.Errorf("lost = %d, want 4", lost)
	}
}

func TestViewAppendOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	v := NewView(2)
	v.Update(batch(rng, 10, 4))
	v.Update(batch(rng, 5, 5))
	if v.Len() != 15 || v.Real() != 9 || v.Updates() != 2 {
		t.Errorf("view len=%d real=%d updates=%d", v.Len(), v.Real(), v.Updates())
	}
	if cols := v.Columns(); len(cols) != 2 || len(cols[0]) != 15 || len(cols[1]) != 15 {
		t.Error("column lengths wrong")
	}
}

// TestViewFlagBitset appends batches of 1–150 slots, so appends start and
// end inside flag words and straddle them, and after every append checks the
// packing against the source flags: FlagByte is each slot's flag, the
// no-condition scan is Real, the bitset holds exactly (Len+63)/64 words and
// no bit at or past Len is set. Restoring a shorter view must clear the
// longer one's bits.
func TestViewFlagBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	check := func(v *View, want []uint8) {
		t.Helper()
		if v.Len() != len(want) || len(v.flag) != (len(want)+63)/64 {
			t.Fatalf("view of %d slots holds len %d in %d flag words", len(want), v.Len(), len(v.flag))
		}
		for i, f := range want {
			if got := v.FlagByte(i); got != f {
				t.Fatalf("len %d: FlagByte(%d) = %d, source flag %d", len(want), i, got, f)
			}
		}
		if r := len(want) % 64; r != 0 && v.flag[len(v.flag)-1]<<r != 0 {
			t.Fatalf("len %d: bits past Len set in the last flag word %#x", len(want), v.flag[len(v.flag)-1])
		}
		if v.Count(nil) != v.Real() {
			t.Fatalf("len %d: Count(nil) = %d, Real = %d", len(want), v.Count(nil), v.Real())
		}
	}
	flags := func(b *oblivious.Buffer) []uint8 {
		out := make([]uint8, b.Len())
		for i := range out {
			out[i] = b.FlagByte(i)
		}
		return out
	}
	v, all := NewView(2), []uint8(nil)
	for len(all) < 2000 {
		n := 1 + rng.Intn(150)
		b := batch(rng, n, rng.Intn(n+1))
		v.Update(b)
		all = append(all, flags(b)...)
		check(v, all)
	}
	for _, n := range []int{130, 65, 64, 63, 1} {
		rows := batch(rng, n, rng.Intn(n+1))
		v.Restore(rows, 1)
		check(v, flags(rows))
	}
}

func TestViewSizeBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	v := NewView(2)
	v.Update(batch(rng, 8, 2))
	if got := v.SizeBytes(256); got != 8*256/8 {
		t.Errorf("SizeBytes = %d", got)
	}
}

// TestReadPreservesMultiset: read + remainder must hold exactly the original
// real tuples (no tuple is lost or duplicated by the oblivious machinery).
func TestReadPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c := newCache(128, nil)
	b := batch(rng, 40, 17)
	orig := realRows(b)
	c.Append(b)
	got := NewView(2)
	c.ReadInto(got, 9)
	combined := append(viewRealRows(got), realRows(c.Buffer())...)
	if !table.MultisetEqual(combined, orig) {
		t.Error("read split changed the multiset of real tuples")
	}
}

// TestCountersPinnedToScan drives a random operation mix over a cache and a
// view and pins the incrementally maintained real-tuple counters against a
// full recount after every operation — the satellite invariant behind the
// O(1) Real() on the serving read path.
func TestCountersPinnedToScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := newCache(128, nil)
	v := NewView(2)
	check := func(op string) {
		t.Helper()
		if c.Real() != c.buf.ScanReal() {
			t.Fatalf("after %s: cache counter %d != scan %d", op, c.Real(), c.buf.ScanReal())
		}
		if v.Real() != v.Count(nil) {
			t.Fatalf("after %s: view counter %d != scan %d", op, v.Real(), v.Count(nil))
		}
	}
	for i := 0; i < 300; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			n := 1 + rng.Intn(20)
			c.Append(batch(rng, n, rng.Intn(n+1)))
			check("append")
		case 2:
			c.ReadInto(v, rng.Intn(c.Len()+3)-1)
			check("readInto")
		case 3:
			_, _ = c.FlushInto(v, rng.Intn(c.Len()+3)-1)
			check("flushInto")
		case 4:
			c.ReadAndPruneInto(v, rng.Intn(c.Len()+2), rng.Intn(4), rng.Intn(15))
			check("readAndPruneInto")
		case 5:
			c.ReadAndPruneInto(v, 0, 0, rng.Intn(c.Len()+2))
			check("prune")
		case 6:
			c.DrainInto(v)
			check("drainInto")
		case 7:
			n := 1 + rng.Intn(20)
			v.Update(batch(rng, n, rng.Intn(n+1)))
			check("update")
		}
	}
}

// TestCacheSteadyStateAllocs pins the warm data plane: appending a batch and
// reading it back must not allocate per slot (small constant per-op
// allocations only, from the view's geometric growth at worst).
func TestCacheSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := newCache(128, nil)
	v := NewView(2)
	src := batch(rng, 256, 40)
	// Warm up: grow the cache arena to its steady-state size. The view's
	// columns keep growing, geometrically, which amortizes to well under one
	// allocation per synchronization.
	for i := 0; i < 4; i++ {
		c.Append(src)
		c.ReadAndPruneInto(v, 40, 4, 128)
	}
	avg := testing.AllocsPerRun(50, func() {
		c.Append(src)
		c.ReadAndPruneInto(v, 40, 4, 128)
	})
	if avg > 4 {
		t.Errorf("steady-state Append+ReadAndPruneInto allocates %.1f/op, want <= 4", avg)
	}
}

func BenchmarkCacheAppend256(b *testing.B) {
	rng := rand.New(rand.NewSource(98))
	c := newCache(256, nil)
	src := batch(rng, 256, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Append(src)
		if c.Len() >= 1<<16 {
			b.StopTimer()
			c.FlushInto(NewView(2), 0)
			b.StartTimer()
		}
	}
}

func BenchmarkCacheRead256(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	c := newCache(256, nil)
	v := NewView(2)
	src := batch(rng, 256, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c.FlushInto(NewView(2), 0)
		c.Append(src)
		if v.Len() > 1<<20 {
			v = NewView(2)
		}
		b.StartTimer()
		c.ReadInto(v, 40)
	}
}

// compacted builds an n-slot batch as Transform caches it after tight
// compaction: its real slots first, then dummies. Every slot's payload is
// unique (seq numbers them), so equal arenas are equal slot for slot.
func compacted(rng *rand.Rand, seq *int64, n, real int) *oblivious.Buffer {
	raw := oblivious.NewBuffer(2, n)
	isReal := rng.Perm(n)
	for i := 0; i < n; i++ {
		*seq++
		raw.AppendSlot(table.Row{*seq, rng.Int63n(100)}, isReal[i] < real, 0, 0)
	}
	out := oblivious.NewBuffer(2, n)
	oblivious.TightCompactInto(raw, n, out, nil, nil, mpc.OpOther, 0)
	return out
}

// sameArena reports whether two buffers hold the same slots in the same
// order, payloads and flags.
func sameArena(a, b *oblivious.Buffer) bool {
	return slices.Equal(a.Flags(), b.Flags()) && slices.Equal(a.Payload().Data(), b.Payload().Data())
}

// sameView reports whether two views hold the same columns and counters.
func sameView(a, b *View) bool {
	return slices.Equal(a.flag, b.flag) && a.Len() == b.Len() &&
		slices.EqualFunc(a.Columns(), b.Columns(), slices.Equal) &&
		a.Real() == b.Real() && a.Updates() == b.Updates()
}

// TestAppendRealFirstMatchesAppend feeds the same compacted batches to one
// cache through AppendRealFirst, whose reads merge, and to another through
// Append, whose reads sort them whole, under a random schedule of every read.
// Because the real-first order is total, every read leaves both arenas and
// both views byte-identical — not merely equal counts — and leaves the
// merging cache one real-first run, or none.
func TestAppendRealFirstMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var seq int64
	m, s := newCache(128, nil), newCache(128, nil)
	vm, vs := NewView(2), NewView(2)
	for i := 0; i < 400; i++ {
		switch op := rng.Intn(10); {
		case op < 6:
			n := 1 + rng.Intn(120)
			b := compacted(rng, &seq, n, rng.Intn(n+1))
			m.AppendRealFirst(b)
			s.Append(b)
			continue
		case op == 6:
			size := rng.Intn(m.Len()+3) - 1
			m.ReadInto(vm, size)
			s.ReadInto(vs, size)
		case op == 7:
			size := rng.Intn(m.Len() + 2)
			m.FlushInto(vm, size)
			s.FlushInto(vs, size)
		default:
			size, spill, keep := rng.Intn(m.Len()+2), rng.Intn(6), rng.Intn(m.Len()+2)
			m.ReadAndPruneInto(vm, size, spill, keep)
			s.ReadAndPruneInto(vs, size, spill, keep)
		}
		if !sameArena(m.Buffer(), s.Buffer()) || !sameView(vm, vs) {
			t.Fatalf("op %d: the merged read and the full sort left different arenas or views", i)
		}
		if want := min(m.Len(), 1); len(m.runs) != want || (want == 1 && (!m.runs[0].RealFirst || m.runs[0].Len != m.Len())) {
			t.Fatalf("op %d: a read left runs %v over %d slots, want one real-first run or none", i, m.runs, m.Len())
		}
	}
}

// TestRestoredCacheForgetsItsRuns: a cache reloaded from its arena, as the
// snapshot codec reloads it, holds one raw run, and from then on reads leave
// the same bytes as the cache that kept its runs.
func TestRestoredCacheForgetsItsRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var seq int64
	kept, v := newCache(128, nil), NewView(2)
	kept.AppendRealFirst(compacted(rng, &seq, 90, 30))
	kept.ReadInto(v, 20)
	for range 3 {
		kept.AppendRealFirst(compacted(rng, &seq, 40, 25))
	}
	restored, rv := newCache(128, nil), NewView(2)
	restored.Buffer().AppendAll(kept.Buffer())
	appends, reads, flushes := kept.Stats()
	restored.RestoreCounters(appends, reads, flushes, kept.MaxLen())
	if len(restored.runs) != 1 || restored.runs[0] != (oblivious.Run{Len: restored.Len()}) {
		t.Fatalf("restored runs %v, want one raw run of %d", restored.runs, restored.Len())
	}
	for i := range 6 {
		b := compacted(rng, &seq, 40, rng.Intn(41))
		kept.AppendRealFirst(b)
		restored.AppendRealFirst(b)
		kept.ReadAndPruneInto(v, 30, 2, 60)
		restored.ReadAndPruneInto(rv, 30, 2, 60)
		if !sameArena(kept.Buffer(), restored.Buffer()) {
			t.Fatalf("read %d after restore: arenas differ", i)
		}
	}
	if vv, rr := viewRealRows(v), viewRealRows(rv); !slices.EqualFunc(vv[len(vv)-len(rr):], rr, table.Row.Equal) {
		t.Error("the restored cache fed its view different tuples")
	}
}

// BenchmarkCacheReadRuns is one cache read at the cpdb_query layout: a
// 1,116-slot real-first remainder plus a 1,000-slot compacted batch, merged
// rather than sorted, then pruned back to the remainder. It fails if a warm
// read allocates.
func BenchmarkCacheReadRuns(b *testing.B) {
	rng := rand.New(rand.NewSource(100))
	var seq int64
	c, v := newCache(256, nil), NewView(2)
	c.AppendRealFirst(compacted(rng, &seq, 1116, 500))
	batch := compacted(rng, &seq, 1000, 400)
	read := func() {
		c.AppendRealFirst(batch)
		c.ReadAndPruneInto(v, 0, 0, 1116)
	}
	read()
	if allocs := testing.AllocsPerRun(10, read); allocs != 0 {
		b.Fatalf("a warm read allocates %v times", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}
