package incshrink_test

import (
	"bytes"
	"testing"

	"incshrink"
	"incshrink/internal/mpc"
)

// TestAdvanceBatchStepAllocs pins the warm allocations of the public hot
// paths exactly, as testing.AllocsPerRun counts them over 200 calls, the
// same at any GOMAXPROCS: Advance on the stream, its step's own rows
// included, and the same with a metrics registry's instruments attached,
// which allocate nothing once every series is resolved; Advance on the
// CPDB/sDPANT deployment; Count and CountWhere — with one condition and
// with the eight it accepts at most — which allocate nothing; and
// AdvanceBatch of 8 steps built outside the measurement. A
// batched step must allocate no more than an Advance, which a race build
// checks too: the record arena is one sized allocation per batch, so the
// batched path amortizes what the sequential path pays per call.
func TestAdvanceBatchStepAllocs(t *testing.T) {
	const runs, k = 200, 8
	seq, bat, query := openStream(t, false, 64), openStream(t, false, 64), openStream(t, false, 256)
	observed := openInstrumented(t, 64)
	ant, antSteps := warmANT(t, runs+1)
	batches := make([][]incshrink.StepRows, runs+1)
	for i := range batches {
		batches[i] = streamSteps(64+k*i, k)
	}
	next := 0
	cases := []struct {
		name  string
		steps int     // steps one call covers
		want  float64 // allocations per call
		call  func() error
	}{
		{"Advance", 1, 6, func() error { return streamStep(seq, 64+next) }},
		{"Advance, instrumented", 1, 6, func() error { return streamStep(observed, 64+next) }},
		{"Advance under sDPANT", 1, 2, func() error { return ant.Advance(antSteps[next].Left, antSteps[next].Right) }},
		{"Count", 1, 0, func() error { query.Count(); return nil }},
		{"CountWhere", 1, 0, func() error { _, _, err := query.CountWhere(streamWhere); return err }},
		{"CountWhere(8 conditions)", 1, 0, func() error { _, _, err := query.CountWhere(eightWhere...); return err }},
		{"AdvanceBatch(8)", k, 2, func() error { return bat.AdvanceBatch(batches[next]) }},
	}
	perStep := map[string]float64{}
	for _, c := range cases {
		next = 0
		got := testing.AllocsPerRun(runs, func() {
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if got != c.want && !raceEnabled {
			t.Errorf("%s: %v allocations per call, want %v", c.name, got, c.want)
		}
		perStep[c.name] = got / float64(c.steps)
	}
	if perStep["AdvanceBatch(8)"] > perStep["Advance"] {
		t.Errorf("batched ingestion allocates %.3f/step, Advance %.3f: batching must not cost more",
			perStep["AdvanceBatch(8)"], perStep["Advance"])
	}
}

// TestMergedCountsMatchSequential checks the public-API contract of
// Options.MergeWindows on the stream of deployments_test.go (every key pairs
// exactly once): query answers, view slots and cache slots match sequential
// ingestion at every batch boundary while the simulated transform cost
// drops. The runs cross the cache flushes at steps 2000 and 4000; at T = 7
// those are not sDPTimer updates, so a segment that ran past one would show.
func TestMergedCountsMatchSequential(t *testing.T) {
	const steps, batch = 4100, 7
	for _, T := range []int{10, 7} {
		open := func(merge bool) *incshrink.DB {
			db, err := incshrink.Open(incshrink.ViewDef{Within: 10},
				incshrink.Options{Epsilon: 1.5, T: T, Seed: 1, MergeWindows: merge})
			if err != nil {
				t.Fatal(err)
			}
			return db
		}
		seq, mrg := open(false), open(true)
		for lo := 0; lo < steps; lo += batch {
			rows := streamSteps(lo, min(batch, steps-lo))
			if err := seq.AdvanceBatch(rows); err != nil {
				t.Fatal(err)
			}
			if err := mrg.AdvanceBatch(rows); err != nil {
				t.Fatal(err)
			}
			ns, _ := seq.Count()
			nm, _ := mrg.Count()
			ss, ms := seq.Stats(), mrg.Stats()
			if ns != nm || ss.ViewSlots != ms.ViewSlots || ss.CacheSlots != ms.CacheSlots {
				t.Fatalf("T=%d, after step %d: sequential count %d, view %d, cache %d; merged %d, %d, %d",
					T, lo+len(rows)-1, ns, ss.ViewSlots, ss.CacheSlots, nm, ms.ViewSlots, ms.CacheSlots)
			}
		}
		if st, mt := seq.Stats().TransformSeconds, mrg.Stats().TransformSeconds; mt >= st {
			t.Fatalf("T=%d: merged transform cost %.3fs not below sequential %.3fs", T, mt, st)
		}
	}
}

// TestMergedAdapterNMatchesMeter pins the closed forms of a merged segment's
// size and comparators against the engine's actual meter, and with them the
// MergeWindows comparator curve they give at any k. An upload block of the
// merged deployment is padded to MaxLeft + MaxRight = 32 + 32 rows, and the
// join carry holds the 9 blocks of the invocations a record survives after
// its first (records take part in at most min(Budget/Omega,
// Within/UploadEvery + 1) = 10 Transforms). One 10-step batch is one segment
// (T=10, no observation before t=10), and its transform charge must be
// exactly the sort of the 10 new blocks and their merge into the carry, the
// order-preserving compaction of the n merged rows back to the carry, plus
// the two linear passes (join emit, tight compaction) over the
// omega-bounded output.
func TestMergedAdapterNMatchesMeter(t *testing.T) {
	const k, blockRows = 10, 2 * 32
	const carryRows, newRows = 9 * blockRows, k * blockRows
	db := openStream(t, true, 0)
	if err := db.AdvanceBatch(streamSteps(0, k)); err != nil {
		t.Fatal(err)
	}
	model := mpc.DefaultCostModel()
	n := carryRows + newRows
	comparators := mpc.SortCompareExchanges(newRows) + mpc.MergeCompareExchanges(carryRows, newRows)
	const sortBits, rowBits = 64 * 3, 64 * 4 // (key, tag) over a stream row; a view row
	gates := float64(comparators)*sortBits*model.ANDGatesPerCompareExchangeBit +
		float64(mpc.CompactMoves(n))*sortBits*model.ANDGatesPerScanBit + // carry compaction
		float64(n)*rowBits*model.ANDGatesPerScanBit + // join emit (omega=1 slot per input row)
		float64(2*n)*rowBits*model.ANDGatesPerScanBit // tight compaction
	want := gates / model.GatesPerSecond
	got := db.Stats().TransformSeconds
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("merged transform charged %.9fs, closed form says %.9fs (%d input rows)", got, want, n)
	}
}

// TestMergedSnapshotRoundTrip: Options.MergeWindows survives the durability
// codec — a restored merged database continues byte-identically to the
// original, still coalescing windows.
func TestMergedSnapshotRoundTrip(t *testing.T) {
	db := openStream(t, true, 0)
	if err := db.AdvanceBatch(streamSteps(0, 16)); err != nil {
		t.Fatal(err)
	}
	var a bytes.Buffer
	if err := db.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	restored, err := incshrink.Restore(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*incshrink.DB{db, restored} {
		if err := d.AdvanceBatch(streamSteps(16, 16)); err != nil {
			t.Fatal(err)
		}
	}
	var ob, rb bytes.Buffer
	if err := db.Snapshot(&ob); err != nil {
		t.Fatal(err)
	}
	if err := restored.Snapshot(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ob.Bytes(), rb.Bytes()) {
		t.Fatal("restored merged database diverged from the original after further batches")
	}
}
