package securearray

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"incshrink/internal/oblivious"
	"incshrink/internal/snapshot"
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
			b.AppendDummies(1)
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

// viewFlag reads slot i's isView bit out of the view's flag words.
func viewFlag(v *View, i int) uint8 { return uint8(v.flag[i/64] >> (63 - i%64) & 1) }

// viewRealRows copies out the payloads of v's real slots.
func viewRealRows(v *View) []table.Row {
	cols := v.cols
	var out []table.Row
	for i := 0; i < v.Len(); i++ {
		if viewFlag(v, i) == 1 {
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
func newCache() *Cache { return New(2, 0, nil) }

// read is Figure 3's plain read: fetch size slots and keep the rest.
func read(c *Cache, v *View, size int) { c.ReadAndPruneInto(v, size, 0, c.Len()) }

// flush is Section 5.2.1's flush: fetch size slots and recycle the rest.
func flush(c *Cache, v *View, size int) (lostReal int) { return c.ReadAndPruneInto(v, size, 0, 0) }

func TestCacheAppendAndCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := newCache()
	c.Append(batch(rng, 10, 3))
	c.Append(batch(rng, 10, 5))
	if c.Len() != 20 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Real() != 8 {
		t.Errorf("Real = %d", c.Real())
	}
	flush(c, NewView(2), 5)
	c.Append(batch(rng, 10, 2))
	if c.Len() != 10 {
		t.Errorf("after a flush and an append: Len = %d, want 10", c.Len())
	}
}

func TestCacheReadFetchesRealFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := newCache()
	c.Append(batch(rng, 30, 12))
	got := NewView(2)
	read(c, got, 12)
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
	c := newCache()
	c.Append(batch(rng, 10, 4))
	// Positive noise: fetch more than real count -> dummies included.
	got := NewView(2)
	read(c, got, 7)
	if got.Len() != 7 || got.Real() != 4 {
		t.Errorf("oversized read: %d slots %d real", got.Len(), got.Real())
	}
	// Negative noise: fetch fewer than real -> deferred data remains.
	c2 := newCache()
	c2.Append(batch(rng, 10, 4))
	got = NewView(2)
	read(c2, got, 2)
	if got.Real() != 2 || c2.Real() != 2 {
		t.Errorf("undersized read: fetched %d real, cache keeps %d", got.Real(), c2.Real())
	}
	// Read larger than cache clamps.
	got = NewView(2)
	read(c2, got, 100)
	if got.Len() != 8 {
		t.Errorf("clamped read returned %d slots, want remaining 8", got.Len())
	}
	if c2.Len() != 0 {
		t.Error("cache should be empty after clamped full read")
	}
	// A negative size clamps to an empty fetch that still counts as a read.
	c2.Append(batch(rng, 6, 3))
	got = NewView(2)
	read(c2, got, -3)
	if got.Len() != 0 || c2.Len() != 6 || got.Updates() != 1 {
		t.Errorf("negative read: fetched %d slots, cache keeps %d, %d view updates", got.Len(), c2.Len(), got.Updates())
	}
}

func TestCacheFlushInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := newCache()
	v := NewView(2)
	c.Append(batch(rng, 50, 6))
	lost := flush(c, v, 10)
	if v.Len() != 10 {
		t.Errorf("flush fetched %d slots, want 10", v.Len())
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
	if v.Updates() != 1 {
		t.Errorf("view updates = %d, want 1", v.Updates())
	}
}

func TestCacheFlushReportsLostReal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := newCache()
	c.Append(batch(rng, 20, 9))
	lost := flush(c, NewView(2), 5) // undersized flush: 4 real recycled
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
	if cols := v.cols; len(cols) != 2 || len(cols[0]) != 15 || len(cols[1]) != 15 {
		t.Error("column lengths wrong")
	}
}

// TestViewFlagBitset appends batches of 1–150 slots, so appends start and
// end inside flag words and straddle them, and after every append checks the
// packing against the source flags: each slot's bit is its flag, the
// no-condition scan is Real, the bitset holds exactly (Len+63)/64 words and
// no bit at or past Len is set. Restoring a shorter view's columns and flag
// words must replace the longer one's, and recount Real.
func TestViewFlagBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	check := func(v *View, want []uint8) {
		t.Helper()
		if v.Len() != len(want) || len(v.flag) != (len(want)+63)/64 {
			t.Fatalf("view of %d slots holds len %d in %d flag words", len(want), v.Len(), len(v.flag))
		}
		for i, f := range want {
			if got := viewFlag(v, i); got != f {
				t.Fatalf("len %d: slot %d flagged %d, source flag %d", len(want), i, got, f)
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
		src := NewView(2)
		src.Update(rows)
		reload(t, src.EncodeState, v.DecodeState)
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
	c := newCache()
	b := batch(rng, 40, 17)
	orig := realRows(b)
	c.Append(b)
	got := NewView(2)
	read(c, got, 9)
	combined := append(viewRealRows(got), realRows(c.buf)...)
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
	c := newCache()
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
			read(c, v, rng.Intn(c.Len()+3)-1)
			check("read")
		case 3:
			flush(c, v, rng.Intn(c.Len()+3)-1)
			check("flush")
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
	c := newCache()
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
	c := newCache()
	src := batch(rng, 256, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Append(src)
		if c.Len() >= 1<<16 {
			b.StopTimer()
			flush(c, NewView(2), 0)
			b.StartTimer()
		}
	}
}

func BenchmarkCacheRead256(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	c := newCache()
	v := NewView(2)
	src := batch(rng, 256, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		flush(c, NewView(2), 0)
		c.Append(src)
		if v.Len() > 1<<20 {
			v = NewView(2)
		}
		b.StartTimer()
		read(c, v, 40)
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
	oblivious.TightCompactInto(raw, n, out, nil, nil, 0, 0)
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
		slices.EqualFunc(a.cols, b.cols, slices.Equal) &&
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
	m, s := newCache(), newCache()
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
			read(m, vm, size)
			read(s, vs, size)
		case op == 7:
			size := rng.Intn(m.Len() + 2)
			flush(m, vm, size)
			flush(s, vs, size)
		default:
			size, spill, keep := rng.Intn(m.Len()+2), rng.Intn(6), rng.Intn(m.Len()+2)
			m.ReadAndPruneInto(vm, size, spill, keep)
			s.ReadAndPruneInto(vs, size, spill, keep)
		}
		if !sameArena(m.buf, s.buf) || !sameView(vm, vs) {
			t.Fatalf("op %d: the merged read and the full sort left different arenas or views", i)
		}
		if want := min(m.Len(), 1); len(m.runs) != want || (want == 1 && (!m.runs[0].RealFirst || m.runs[0].Len != m.Len())) {
			t.Fatalf("op %d: a read left runs %v over %d slots, want one real-first run or none", i, m.runs, m.Len())
		}
	}
}

// reload writes one section into a snapshot stream and reads it back.
func reload(t *testing.T, write func(*snapshot.Encoder), read func(*snapshot.Decoder)) {
	t.Helper()
	var buf bytes.Buffer
	e := snapshot.NewEncoder(&buf)
	write(e)
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	d := snapshot.NewDecoder(&buf)
	if read(d); d.Err() != nil || d.Finish() != nil {
		t.Fatalf("section does not reload: %v", d.Err())
	}
}

// TestRestoredCacheForgetsItsRuns: a cache reloaded from its snapshot
// section holds one raw run, and from then on reads leave the same bytes as
// the cache that kept its runs.
func TestRestoredCacheForgetsItsRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var seq int64
	kept, v := newCache(), NewView(2)
	kept.AppendRealFirst(compacted(rng, &seq, 90, 30))
	read(kept, v, 20)
	for range 3 {
		kept.AppendRealFirst(compacted(rng, &seq, 40, 25))
	}
	restored, rv := newCache(), NewView(2)
	reload(t, kept.EncodeState, restored.DecodeState)
	if len(restored.runs) != 1 || restored.runs[0] != (oblivious.Run{Len: restored.Len()}) {
		t.Fatalf("restored runs %v, want one raw run of %d", restored.runs, restored.Len())
	}
	for i := range 6 {
		b := compacted(rng, &seq, 40, rng.Intn(41))
		kept.AppendRealFirst(b)
		restored.AppendRealFirst(b)
		kept.ReadAndPruneInto(v, 30, 2, 60)
		restored.ReadAndPruneInto(rv, 30, 2, 60)
		if !sameArena(kept.buf, restored.buf) {
			t.Fatalf("read %d after restore: arenas differ", i)
		}
	}
	if vv, rr := viewRealRows(v), viewRealRows(rv); !slices.EqualFunc(vv[len(vv)-len(rr):], rr, table.Row.Equal) {
		t.Error("the restored cache fed its view different tuples")
	}
}

// BenchmarkCacheReadRuns is one cache read at each layout a benchmark
// workload meets at seed 1: a real-first remainder and the compacted batches
// appended since, merged rather than sorted and cut to the K slots the read
// keeps, the cache left at the remainder's length again. cpdb_query's sDPANT
// read fetches nothing, spills 12 and keeps its 1,116-slot bound (K = 1,128
// of 2,220); tpcds_step's fetches 29, spills 2 and keeps 169 (K = 200 of
// 1,209, ten batches); tpcds_batch's is the same read after an
// AdvanceBatch(8) appended two merged windows. The view is emptied after
// each read, and the benchmark fails if a warm read allocates.
func BenchmarkCacheReadRuns(b *testing.B) {
	for _, bc := range []struct {
		name              string
		left              int
		batches           []int
		size, spill, keep int
	}{
		{"cpdb", 1116, []int{1104}, 0, 12, 1116},
		{"tpcds_step", 169, slices.Repeat([]int{104}, 10), 29, 2, 169},
		{"tpcds_batch", 169, []int{520, 520}, 29, 2, 169},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(100))
			var seq int64
			c, v := newCache(), NewView(2)
			c.AppendRealFirst(compacted(rng, &seq, bc.left, bc.left/3))
			var batches []*oblivious.Buffer
			for _, n := range bc.batches {
				batches = append(batches, compacted(rng, &seq, n, n/40))
			}
			read := func() {
				for _, batch := range batches {
					c.AppendRealFirst(batch)
				}
				c.ReadAndPruneInto(v, bc.size, bc.spill, bc.keep)
				emptyView(v)
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
		})
	}
}

// emptyView drops every slot of v, keeping its storage.
func emptyView(v *View) {
	for j := range v.cols {
		v.cols[j] = v.cols[j][:0]
	}
	v.flag, v.n, v.real = v.flag[:0], 0, 0
}
