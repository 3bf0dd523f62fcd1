package incshrink_test

import (
	"bytes"
	"testing"

	"incshrink"
	"incshrink/internal/corebench"
	"incshrink/internal/mpc"
)

// TestAdvanceBatchStepAllocs pins the batched-ingestion allocation contract:
// a steady-state AdvanceBatch must allocate no more per covered step than a
// steady-state Advance — the record arena is one sized allocation per batch,
// so the batched path amortizes while the sequential path pays per call.
func TestAdvanceBatchStepAllocs(t *testing.T) {
	warm := func() *incshrink.DB {
		db, err := corebench.Open()
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 64; s++ {
			if err := corebench.Step(db, s); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}

	const rounds = 50
	seq := warm()
	st := 64
	single := testing.AllocsPerRun(rounds, func() {
		if err := corebench.Step(seq, st); err != nil {
			t.Fatal(err)
		}
		st++
	})

	const k = 8
	bat := warm()
	batches := make([][]incshrink.StepRows, rounds+1) // workload built outside the measurement
	for i := range batches {
		batches[i] = corebench.Steps(64+k*i, k)
	}
	bi := 0
	perStep := testing.AllocsPerRun(rounds, func() {
		if err := bat.AdvanceBatch(batches[bi]); err != nil {
			t.Fatal(err)
		}
		bi++
	}) / k

	if perStep > single {
		t.Fatalf("batched ingestion allocates %.2f/step, sequential %.2f/step: batching must not cost more", perStep, single)
	}
}

// TestMergedCountsMatchSequential checks the public-API contract of
// Options.MergeWindows on the corebench stream (every key pairs exactly
// once): query answers, view slots and cache slots match sequential
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
			rows := corebench.Steps(lo, min(batch, steps-lo))
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

// TestMergedAdapterNMatchesMeter pins corebench.MergedAdapterN and
// corebench.MergedComparators — the closed forms behind the comparator
// counts reported in BENCH_core.json — against the engine's actual meter:
// one 10-step batch at the merged deployment is one segment (T=10, no
// observation before t=10), and its transform charge must be exactly the
// sort of the 10 new blocks and their merge into the carry, the
// order-preserving compaction of the MergedAdapterN(10) merged rows back to
// the carry, plus the two linear passes (join emit, tight compaction) over
// the omega-bounded output.
func TestMergedAdapterNMatchesMeter(t *testing.T) {
	db, err := corebench.OpenMerged()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AdvanceBatch(corebench.Steps(0, 10)); err != nil {
		t.Fatal(err)
	}
	model := mpc.DefaultCostModel()
	n := corebench.MergedAdapterN(10)
	const sortBits, rowBits = 64 * 3, 64 * 4 // (key, tag) over a stream row; a view row
	gates := float64(corebench.MergedComparators(10))*sortBits*model.ANDGatesPerCompareExchangeBit +
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
	db, err := corebench.OpenMerged()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AdvanceBatch(corebench.Steps(0, 16)); err != nil {
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
		if err := d.AdvanceBatch(corebench.Steps(16, 16)); err != nil {
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
