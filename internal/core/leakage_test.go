package core

import (
	"encoding/hex"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/workload"
)

// newRecorded builds an engine whose two parties record their transcripts
// from the first event — construction's counter share included — which is
// the full event list the Theorem-7/8 simulators must reproduce. Nothing
// outside tests records: a serving party keeps only the digest.
func newRecorded(t *testing.T, cfg Config, wl workload.Config, shrink Shrinker) (f *Framework, s0, s1 *mpc.Transcript) {
	t.Helper()
	rt := mpc.NewRuntime(mpc.DefaultCostModel(), cfg.Seed)
	s0, s1 = new(mpc.Transcript), new(mpc.Transcript)
	rt.Party(mpc.Server0).Record(s0)
	rt.Party(mpc.Server1).Record(s1)
	f, err := newOn(rt, cfg, wl, shrink)
	if err != nil {
		t.Fatal(err)
	}
	return f, s0, s1
}

// TestFrameGroupingKeepsEvents: grouping the runtime's words into fewer
// frames moves only the wire stamps. With the stamps zeroed, both parties'
// recorded transcripts — every draw, share, size and label, in order — hash
// to what the one-word-per-round runtime produced for the same runs.
func TestFrameGroupingKeepsEvents(t *testing.T) {
	for _, c := range []struct {
		name   string
		shrink func() Shrinker
		merge  bool
		want   [2]string
	}{
		{"timer", func() Shrinker { return &Timer{} }, false, [2]string{
			"381e248ac4054a907e140f9736fb09c8e84f981c43c636df85c9baf44e840a56",
			"5e5ec41bfd49ca64f7774e5e2abce0517a34ddee48a2cec55f4c004b40119cba"}},
		{"timer-merged", func() Shrinker { return &Timer{} }, true, [2]string{
			"203a6559a8ee6dab9f868130bc4732a235d171ff44780414ba96c99bb250d87b",
			"7b54049e07ea623862ef2050cbf378b89009e8db019702f070b277fe8a12dc3a"}},
		{"ant", func() Shrinker { return &ANT{} }, false, [2]string{
			"2d494958061fc3d73b491630d1ac6e1ee9bc30fe16cda6aa7c5c36f29b2e1fa9",
			"a9efcfa01e17c86a4c9a46634957eb710b2767a1076f0ea9e3d4bf951e21d375"}},
	} {
		wl := workload.TPCDS(240, 41)
		tr, err := workload.Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(wl, 41)
		cfg.MergeWindows = c.merge
		f, real0, real1 := newRecorded(t, cfg, wl, c.shrink())
		for i := 0; i < len(tr.Steps); i += 8 {
			f.StepBatch(tr.Steps[i:min(i+8, len(tr.Steps))])
		}
		for p, real := range []*mpc.Transcript{real0, real1} {
			d := real.DigestWithoutWire()
			if got := hex.EncodeToString(d[:]); got != c.want[p] {
				t.Errorf("%s: party %d events without wire stamps hash to %s, want %s", c.name, p, got, c.want[p])
			}
		}
	}
}

// TestSimulatorIndistinguishability is the executable half of Theorem 7:
// the simulator of Table 1, given ONLY the public parameters and the DP
// mechanism's outputs (the noisy fetch sizes), must reproduce a real
// server's transcript event for event — same kinds, times, public sizes and
// labels. If the implementation ever leaked a data-dependent value into the
// transcript (an unpadded batch, a true cardinality, an extra message), the
// structural comparison would fail. The 2,010-step run crosses the cache
// flush at step 2000, whose size the simulator derives from the public cache
// length.
func TestSimulatorIndistinguishability(t *testing.T) {
	for _, steps := range []int{240, 2010} {
		wl := workload.TPCDS(steps, 31)
		tr, err := workload.Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(wl, 31)
		cfg.T = 10
		f, real0, real1 := newRecorded(t, cfg, wl, &Timer{})
		for _, st := range tr.Steps {
			f.Step(st)
		}
		if n := f.rt.Party(mpc.Server0).EventCount(); n != uint64(len(real0.Events)) {
			t.Fatalf("recorder holds %d events, the party counted %d", len(real0.Events), n)
		}
		requireFlushes(t, real0, wl)

		// The simulator's inputs: public parameters...
		pp := mpc.PublicParams{
			UploadEvery: wl.UploadEvery,
			BatchSize:   cfg.Omega * wl.MaxRight, // right-driven public delta cap
			T:           cfg.T,
			Spill:       spillBound(cfg, wl),
			Prune:       f.prune,
			Steps:       wl.Steps,
		}
		// ...and the DP mechanism's outputs, i.e. exactly the fetch sizes.
		fetches := map[int]int{}
		for _, ev := range real0.Events {
			if ev.Kind == mpc.EvFetchObserved {
				fetches[ev.Time] = ev.Size
			}
		}
		for _, real := range []*mpc.Transcript{real0, real1} {
			requireSimulated(t, real, mpc.SimulateTimer(pp, fetches, real.Party, 7))
		}
	}
}

// requireFlushes fails the test unless the run observed the cache flush at
// every positive multiple of 2000 steps it reached.
func requireFlushes(t *testing.T, real *mpc.Transcript, wl workload.Config) {
	t.Helper()
	n := 0
	for _, ev := range real.Events {
		if ev.Kind == mpc.EvFlushObserved && ev.Label == "flush" {
			n++
		}
	}
	if want := (wl.Steps - 1) / mpc.FlushEvery; n != want {
		t.Fatalf("%s over %d steps: %d cache flushes, want %d", wl.Name, wl.Steps, n, want)
	}
}

// requireSimulated fails the test where a simulated transcript departs from
// the real one, showing the events around the divergence.
func requireSimulated(t *testing.T, real, simulated *mpc.Transcript) {
	t.Helper()
	if ok, at := mpc.StructurallyEqual(real, simulated); !ok {
		lo := max(at-2, 0)
		hiR, hiS := min(at+3, len(real.Events)), min(at+3, len(simulated.Events))
		t.Fatalf("party %v: transcripts diverge at event %d\nreal:      %+v\nsimulated: %+v",
			real.Party, at, real.Events[lo:hiR], simulated.Events[lo:hiS])
	}
}

// TestSimulatedSharesUniform checks the distributional half: the share
// values a real server stores are uniform (indistinguishable from the
// simulator's fresh randomness). We bucket the top nibble across the run.
func TestSimulatedSharesUniform(t *testing.T) {
	wl := workload.TPCDS(600, 33)
	tr, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(wl, 33)
	f, _, real1 := newRecorded(t, cfg, wl, &Timer{})
	for _, st := range tr.Steps {
		f.Step(st)
	}
	hist := make([]int, 16)
	n := 0
	for _, ev := range real1.Events {
		if ev.Kind == mpc.EvShareReceived {
			hist[ev.Share>>28]++
			n++
		}
	}
	if n < 300 {
		t.Fatalf("only %d share events; horizon too short for the test", n)
	}
	exp := n / 16
	for b, h := range hist {
		if h < exp/2 || h > exp*2 {
			t.Errorf("share nibble %x count %d far from uniform %d", b, h, exp)
		}
	}
}

// TestCPDBBatchSizesPublic: with a public right relation the batch sizes may
// vary, but they must be a function of the public award stream alone — the
// same award stream with different private allegations must produce the
// same batch-size sequence.
func TestCPDBBatchSizesPublic(t *testing.T) {
	// Generate two CPDB traces with identical seeds: the private stream is
	// the same generator output, so instead vary the private side by
	// dropping half the allegations (a change an adversary must not detect
	// beyond the DP outputs).
	wl := workload.CPDB(200, 35)
	tr, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	run := func(dropLeft bool) []int {
		cfg := DefaultConfig(wl, 35)
		f, real0, _ := newRecorded(t, cfg, wl, &Timer{})
		for _, st := range tr.Steps {
			if dropLeft {
				st.Left = st.Left[:len(st.Left)/2]
			}
			f.Step(st)
		}
		return real0.SizesOf(mpc.EvBatchObserved)
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("batch counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("batch %d: size %d vs %d differ with private data", i, a[i], b[i])
		}
	}
}

// TestSimulatorIndistinguishabilityANT is the Theorem-8 counterpart: the
// sDPANT deployment's transcripts must be reproducible from the public
// parameters plus the M_ant outputs (update times and released sizes). The
// CPDB run crosses the cache flush at step 2000; its right relation is
// public, so its batch sizes follow the public arrivals.
func TestSimulatorIndistinguishabilityANT(t *testing.T) {
	for _, wl := range []workload.Config{workload.TPCDS(240, 37), workload.CPDB(2010, 37)} {
		tr, err := workload.Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(wl, 37)
		f, real0, _ := newRecorded(t, cfg, wl, &ANT{})
		for _, st := range tr.Steps {
			f.Step(st)
		}
		requireFlushes(t, real0, wl)

		pp := mpc.PublicParams{
			UploadEvery: wl.UploadEvery,
			BatchSize:   cfg.Omega * wl.MaxRight,
			Spill:       spillBound(cfg, wl),
			Prune:       f.prune,
			Steps:       wl.Steps,
		}
		if wl.RightPublic {
			pp.Batches = publicBatches(cfg, wl, tr)
		}
		var updates []mpc.ANTOutput
		for _, ev := range real0.Events {
			if ev.Kind == mpc.EvFetchObserved {
				updates = append(updates, mpc.ANTOutput{Time: ev.Time, Size: ev.Size})
			}
		}
		if len(updates) == 0 {
			t.Fatalf("%s: ANT never updated; test vacuous", wl.Name)
		}
		requireSimulated(t, real0, mpc.SimulateANT(pp, updates, real0.Party, 9))
	}
}

// publicBatches is each Transform's output size over a public right
// relation: omega times the padded left block plus the right rows that
// arrived since the previous upload.
func publicBatches(cfg Config, wl workload.Config, tr *workload.Trace) []int {
	var out []int
	right := 0
	for _, st := range tr.Steps {
		right += len(st.Right)
		if (st.T+1)%wl.UploadEvery == 0 {
			out = append(out, cfg.Omega*(wl.MaxLeft+right))
			right = 0
		}
	}
	return out
}
