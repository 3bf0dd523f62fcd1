package core

import (
	"bytes"
	"fmt"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/table"
	"incshrink/internal/workload"
)

// mergedEngine builds a Timer engine with window merging enabled.
func mergedEngine(t *testing.T, wl workload.Config, ant bool) *Framework {
	t.Helper()
	cfg := DefaultConfig(wl, 7)
	cfg.MergeWindows = true
	var (
		f   *Framework
		err error
	)
	if ant {
		f, err = NewANTEngine(cfg)
	} else {
		f, err = NewTimerEngine(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMergeWindowsCountTrajectory pins the semantic contract of window
// merging on a single-contribution stream (TPC-ds, MaxMultiplicity=1): the
// query answer after every batch matches sequential execution exactly —
// counter values at observation points, DP noise draws, and view contents
// all line up even though the merged run invokes Transform far fewer times.
// The second workload is window-limited (records retire because the join
// window lapses before their budget does), with segments longer than the
// window.
func TestMergeWindowsCountTrajectory(t *testing.T) {
	short := workload.TPCDS(120, 7)
	short.Within, short.MaxLag = 3, 3
	for _, wl := range []workload.Config{workload.TPCDS(120, 7), short} {
		t.Run(fmt.Sprintf("within=%d", wl.Within), func(t *testing.T) { mergeCountTrajectory(t, wl) })
	}
}

func mergeCountTrajectory(t *testing.T, wl workload.Config) {
	tr := mustTrace(t, wl)

	cfg := DefaultConfig(wl, 7)
	seq, err := NewTimerEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mrg := mergedEngine(t, wl, false)

	const chunk = 8
	for lo := 0; lo < len(tr.Steps); lo += chunk {
		hi := min(lo+chunk, len(tr.Steps))
		for _, st := range tr.Steps[lo:hi] {
			seq.Step(st)
		}
		mrg.StepBatch(tr.Steps[lo:hi])
		ns, _ := seq.Query()
		nm, _ := mrg.Query()
		if ns != nm {
			t.Fatalf("after step %d: sequential count %d, merged count %d", hi-1, ns, nm)
		}
	}
	if seq.created != mrg.created {
		t.Fatalf("created pairs diverged: sequential %d, merged %d", seq.created, mrg.created)
	}
	if mrg.transforms >= seq.transforms {
		t.Fatalf("merging did not reduce invocations: %d merged vs %d sequential", mrg.transforms, seq.transforms)
	}
}

// TestMergeWindowsANTByteIdentical: ANT observes the cache every step, so
// with merging enabled every segment degenerates to a single block and
// StepBatch must reproduce sequential execution byte-for-byte — the merged
// transform with k=1 is the identity refactoring of transform.
func TestMergeWindowsANTByteIdentical(t *testing.T) {
	wl := workload.TPCDS(60, 3)
	tr := mustTrace(t, wl)

	seq := mergedEngine(t, wl, true) // the batched engine's cfg ...
	bat := mergedEngine(t, wl, true)
	for _, st := range tr.Steps {
		seq.Step(st) // ... but Step never merges
	}
	for lo := 0; lo < len(tr.Steps); lo += 7 {
		bat.StepBatch(tr.Steps[lo:min(lo+7, len(tr.Steps))])
	}

	if sb, bb := encodeState(t, seq), encodeState(t, bat); !bytes.Equal(sb, bb) {
		t.Fatalf("ANT merged batch diverged from sequential (%d vs %d bytes): k=1 segments must be byte-identical", len(sb), len(bb))
	}
}

// mergeTestSteps builds k contiguous steps with fixed-shape uploads (two
// left records and one right record per step, unique IDs, key-equal and
// in-window so real pairs form).
func mergeTestSteps(k int) []workload.Step {
	steps := make([]workload.Step, k)
	id := int64(1)
	for t := 0; t < k; t++ {
		mk := func(key int64) oblivious.Record {
			r := oblivious.Record{ID: id, Row: table.Row{key, int64(t)}}
			id++
			return r
		}
		steps[t] = workload.Step{
			T:     t,
			Left:  []oblivious.Record{mk(int64(2 * t)), mk(int64(2*t + 1))},
			Right: []oblivious.Record{mk(int64(2 * t))},
		}
	}
	return steps
}

// TestMergedMeterConsistency is the cost-model consistency check for window
// merging: the transform-phase gates charged for one merged segment must
// equal the closed form implied by what the MERGED invocation runs — one
// Batcher sort of the segment's k new padded blocks, one merge of them into
// the carry, the order-preserving compaction of the merged input back to the
// carry's cap, plus two linear passes (join emit, tight compaction) over the
// omega-bounded output. The saving relative to k sequential invocations is
// intentional and priced, not hidden: the merged run charges strictly fewer
// gates, and exactly the gates a protocol sorting and merging once would pay.
func TestMergedMeterConsistency(t *testing.T) {
	wl := workload.TPCDS(10, 1) // T=11 > 10 steps: no observation inside the batch
	steps := mergeTestSteps(10)
	k := len(steps)

	mrg := mergedEngine(t, wl, false)
	if mrg.cfg.T <= k {
		t.Fatalf("test needs T > %d so the batch is one segment, got T=%d", k, mrg.cfg.T)
	}
	carried := mrg.carry.Len()
	mrg.StepBatch(steps)
	if mrg.transforms != 1 {
		t.Fatalf("expected one merged invocation, got %d", mrg.transforms)
	}

	// Mirror the merged transform's charges. The carry holds both padded
	// sides at their caps, the segment adds k public blocks per side. Sort,
	// merge and carry compaction move (key, tag) over the widest record; join
	// emit and delta compaction move full view rows.
	model := mpc.DefaultCostModel()
	fresh := k * (wl.MaxLeft + wl.MaxRight)
	mergedN := carried + fresh
	if want := (invocationsPerRecord(mrg.cfg) - 1) * (wl.MaxLeft + wl.MaxRight); carried != want || mrg.carry.Len() != want {
		t.Fatalf("carry of %d rows before and %d after the segment, want the public cap %d", carried, mrg.carry.Len(), want)
	}
	sortBits := 64 * (workload.StreamArity + 1)
	outLen := mrg.cfg.Omega * mergedN // omega slots per input tuple
	want := float64(mpc.SortCompareExchanges(fresh)+mpc.MergeCompareExchanges(carried, fresh))*float64(sortBits)*model.ANDGatesPerCompareExchangeBit +
		float64(mpc.CompactMoves(mergedN))*float64(sortBits)*model.ANDGatesPerScanBit + // carry compaction
		float64(outLen)*float64(tupleBits)*model.ANDGatesPerScanBit + // join emit scan
		float64(2*outLen)*float64(tupleBits)*model.ANDGatesPerScanBit // tight compaction

	got := mrg.rt.Meter.Gates(mpc.OpTransform)
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("merged transform gates = %.0f, want %.0f (mergedN=%d)", got, want, mergedN)
	}

	// The sequential run over the same steps must charge strictly more: k
	// sorts, k merges into the carry and k compactions of it.
	cfg := DefaultConfig(wl, 7)
	seq, err := NewTimerEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq.StepBatch(steps)
	if seqGates := seq.rt.Meter.Gates(mpc.OpTransform); seqGates <= got {
		t.Fatalf("merged charges (%.0f gates) not below sequential (%.0f gates)", got, seqGates)
	}
}
