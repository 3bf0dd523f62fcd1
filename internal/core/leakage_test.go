package core

import (
	"encoding/hex"
	"math/rand"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/workload"
)

// newRecorded builds an engine whose two parties record their transcripts
// from the first event — construction's counter share included — which is
// the full event list the Theorem-7/8 simulation must reproduce. Nothing
// outside tests records: a serving party keeps only the digest.
func newRecorded(t *testing.T, cfg Config, proto protocol) (f *Framework, s0, s1 *mpc.Transcript) {
	t.Helper()
	rt := mpc.NewRuntime(mpc.DefaultCostModel(), cfg.Seed)
	s0, s1 = new(mpc.Transcript), new(mpc.Transcript)
	rt.Party(mpc.Server0).Record(s0)
	rt.Party(mpc.Server1).Record(s1)
	f, err := newOn(rt, cfg, proto)
	if err != nil {
		t.Fatal(err)
	}
	return f, s0, s1
}

// TestFrameGroupingKeepsEvents: grouping the runtime's words into fewer
// frames moves only the wire stamps. With the stamps zeroed, both parties'
// recorded transcripts — every draw, share, size and label, in order — hash
// to what the one-word-per-round runtime produced for the same runs. With
// the stamps, each party's running transcript digest pins the round and byte
// schedule itself: the Theorem-7/8 simulator runs the same rounds as the real
// run, so a round added to both is no leak, and only this pin shows it.
func TestFrameGroupingKeepsEvents(t *testing.T) {
	for _, c := range []struct {
		name  string
		proto protocol
		merge bool
		want  [2]string // without wire stamps
		wire  [2]string // with them
	}{
		{"timer", timer, false, [2]string{
			"381e248ac4054a907e140f9736fb09c8e84f981c43c636df85c9baf44e840a56",
			"5e5ec41bfd49ca64f7774e5e2abce0517a34ddee48a2cec55f4c004b40119cba"}, [2]string{
			"edef1cef3bcdf2b2ef23a5e6bb3d875c907a00b82b4f792037d53152efc48b41",
			"cd88264c6e4aba596fb1e37f557bfdbc61773bd25fcae8beb56defd560d57f0a"}},
		{"timer-merged", timer, true, [2]string{
			"203a6559a8ee6dab9f868130bc4732a235d171ff44780414ba96c99bb250d87b",
			"7b54049e07ea623862ef2050cbf378b89009e8db019702f070b277fe8a12dc3a"}, [2]string{
			"e5def3a9ee00e1bdea2c3f402e293f79b301e4bf939fdf8f1dc24d7a3c572d9b",
			"afa0d161e7e5fb0d6c2859c8334aa54643dff874c889f1ed9812b986a9e5e0df"}},
		{"ant", ant, false, [2]string{
			"2d494958061fc3d73b491630d1ac6e1ee9bc30fe16cda6aa7c5c36f29b2e1fa9",
			"a9efcfa01e17c86a4c9a46634957eb710b2767a1076f0ea9e3d4bf951e21d375"}, [2]string{
			"9a7b40f4622ec2c1f8204354a730c4cd76b245d407e6b5bfbaf5fedd5530b6fc",
			"7e22739c1977d90d644fe81e8c764090b9a65c7a6f80e47118f5679d69f9c88f"}},
	} {
		wl := workload.TPCDS(240, 41)
		tr, err := workload.Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(wl, 41)
		cfg.MergeWindows = c.merge
		f, real0, real1 := newRecorded(t, cfg, c.proto)
		runCut(f, tr.Steps, 8)
		for p, real := range []*mpc.Transcript{real0, real1} {
			d := real.DigestWithoutWire()
			if got := hex.EncodeToString(d[:]); got != c.want[p] {
				t.Errorf("%s: party %d events without wire stamps hash to %s, want %s", c.name, p, got, c.want[p])
			}
			w := f.rt.Party(real.Party).TranscriptDigest()
			if got := hex.EncodeToString(w[:]); got != c.wire[p] {
				t.Errorf("%s: party %d transcript hashes to %s, want %s", c.name, p, got, c.wire[p])
			}
		}
	}
}

// paperRows are seven hand-picked deployments on the paper's workloads: both
// protocols, per-step and merged Transforms, and cuts of one to sixteen
// steps per StepBatch call. The 2,010-step rows cross the cache flush at step
// 2000.
var paperRows = []struct {
	name  string
	wl    workload.Config
	ant   bool
	merge bool
	cut   int // steps per StepBatch call
}{
	{"timer-tpcds", workload.TPCDS(240, 31), false, false, 1},
	{"timer-tpcds-flush", workload.TPCDS(2010, 31), false, false, 1},
	{"timer-cpdb", workload.CPDB(200, 35), false, false, 1},
	{"timer-merged", workload.TPCDS(240, 41), false, true, 8},
	{"ant-tpcds", workload.TPCDS(240, 37), true, false, 1},
	{"ant-cpdb-flush", workload.CPDB(2010, 37), true, false, 1},
	{"ant-merged", workload.CPDB(240, 41), true, true, 16},
}

// TestSimulatorIndistinguishability is the executable half of Theorems 7
// and 8 on the paper's workloads: checkSimulated over paperRows.
func TestSimulatorIndistinguishability(t *testing.T) {
	for _, c := range paperRows {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig(c.wl, c.wl.Seed)
			cfg.MergeWindows = c.merge
			_, real0, released := checkSimulated(t, deployment{c.wl, cfg, c.ant, c.cut})
			requireFlushes(t, real0, c.wl)
			if released == 0 {
				t.Fatal("the run released nothing; the comparison would be vacuous")
			}
		})
	}
}

// deployment is one run the Theorem-7/8 check replays: a workload, an
// engine configuration, the Shrink protocol (sDPANT or sDPTimer) and the
// number of steps per StepBatch call. The engine runs under the workload's
// Shape, as sim.Build runs it.
type deployment struct {
	wl  workload.Config
	cfg Config
	ant bool
	cut int
}

// overflowing is a generated deployment whose right-driven delta cap binds:
// a public relation whose late partners ship after the right records they
// join, so at some Transforms the join emits more real pairs than omega per
// new right row. A cap that carried those pairs into the next compaction
// charged their count (1,024 Transform gates more than the pad replay).
var overflowing = deployment{
	wl: workload.Config{Name: "overflowing", Steps: 62, UploadEvery: 2, PairRate: 1.9883776886008415, MaxMultiplicity: 5,
		LeftNoiseRate: 2.444003057518186, RightNoiseRate: 0.04787344208255133, Within: 9, MaxLag: 7,
		MaxLeft: 5, MaxRight: 3, RightPublic: true, RightDrivesPairs: true, Seed: 552},
	cfg: Config{Epsilon: 1.5, Omega: 5, Budget: 7, T: 7, Theta: 55, Seed: 1552},
	ant: true,
	cut: 14,
}

// drawDeployment draws a deployment from the space the check sweeps: both
// protocols, omega 1–5, Budget omega to omega+19, T 1–20, Theta 5–64,
// epsilon in {0.3, 0.75, 1.5, 5}, block sizes 1–40, Within 0–12, upload
// period 1–5, multiplicity 1–6, a public relation, merged windows and
// right-driven pairs each on or off, horizons of 1–100 steps and StepBatch
// cuts of 1–16.
func drawDeployment(seed int64) deployment {
	r := rand.New(rand.NewSource(seed))
	in := func(lo, hi int) int { return lo + r.Intn(hi-lo+1) }
	coin := func() bool { return r.Intn(2) == 1 }
	wl := workload.Config{
		Name:             "drawn",
		Steps:            in(1, 100),
		UploadEvery:      in(1, 5),
		PairRate:         3 * r.Float64(),
		MaxMultiplicity:  in(1, 6),
		LeftNoiseRate:    4 * r.Float64(),
		RightNoiseRate:   2 * r.Float64(),
		Within:           int64(in(0, 12)),
		MaxLeft:          in(1, 40),
		MaxRight:         in(1, 40),
		RightPublic:      coin(),
		RightDrivesPairs: coin(),
		Seed:             r.Int63(),
	}
	wl.MaxLag = int64(in(0, int(wl.Within)))
	omega := in(1, 5)
	cfg := Config{
		Epsilon:      []float64{0.3, 0.75, 1.5, 5}[r.Intn(4)],
		Omega:        omega,
		Budget:       in(omega, omega+19),
		T:            in(1, 20),
		Theta:        float64(in(5, 64)),
		MergeWindows: coin(),
		Seed:         r.Int63(),
	}
	return deployment{wl: wl, cfg: cfg, ant: coin(), cut: in(1, 16)}
}

// checkSimulated is the Theorem-7/8 check, with the textbook simulator: the
// protocol itself, run on dummy inputs with the leakage programmed in. It
// runs d for real, then a second engine on the real run's public schedule —
// the deployment, an independent seed, the same StepBatch cuts, every private
// upload empty (a public relation's arrivals pass through) — that takes its
// DP outputs from the real run's fetch events: the sDPTimer release sizes,
// the sDPANT SVT bits and release sizes. Both parties' transcripts must then
// agree with the real ones on every event's kind, time, size, label and wire
// stamps: an unpadded batch, a true cardinality or a round that depends on the
// data would show. So must the cost the engine exports — each phase's metered
// gates, the cache and view lengths and the update count — which makes the
// modelled seconds in /stats and /metrics a function of public sizes and DP
// releases too, and the length of the engine's snapshot after every StepBatch
// call. It returns the real engine, its server-0 transcript and the number of
// releases it made.
func checkSimulated(t *testing.T, d deployment) (f *Framework, real0 *mpc.Transcript, released int) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("deployment %+v", d)
		}
	}()
	tr, err := workload.Generate(d.wl)
	if err != nil {
		t.Fatal(err)
	}
	d.cfg.Shape = ShapeOf(d.wl)
	proto := timer
	if d.ant {
		proto = ant
	}
	// run feeds steps to e in StepBatch calls of d.cut steps and returns the
	// snapshot's length after each call.
	run := func(e *Framework, steps []workload.Step) []int {
		var lens []int
		for i := 0; i < len(steps); i += d.cut {
			e.StepBatch(steps[i:min(i+d.cut, len(steps))])
			lens = append(lens, len(encodeState(t, e)))
		}
		return lens
	}

	f, real0, real1 := newRecorded(t, d.cfg, proto)
	realLens := run(f, tr.Steps)
	if n := f.rt.Party(mpc.Server0).EventCount(); n != uint64(len(real0.Events)) {
		t.Fatalf("recorder holds %d events, the party counted %d", len(real0.Events), n)
	}

	// The leakage: the DP releases, read off the real transcript.
	var rel releases
	for _, ev := range real0.Events {
		if ev.Kind == mpc.EvFetchObserved {
			rel = append(rel, ev)
		}
	}
	released = len(rel)

	pads := make([]workload.Step, len(tr.Steps))
	for i, st := range tr.Steps {
		pads[i].T = st.T
		if d.wl.RightPublic {
			pads[i].Right = st.Right
		}
	}
	cfg := d.cfg
	cfg.Seed++
	sim, sim0, sim1 := newRecorded(t, cfg, proto)
	sim.replay = &rel
	simLens := run(sim, pads)

	requireSimulated(t, real0, sim0)
	requireSimulated(t, real1, sim1)
	for op := mpc.OpTransform; op <= mpc.OpOther; op++ {
		if r, s := f.rt.Meter.Gates(op), sim.rt.Meter.Gates(op); r != s {
			t.Errorf("%v gates: real %v, simulated %v", op, r, s)
		}
	}
	rm, sm := f.Metrics(), sim.Metrics()
	if rm.CacheLen != sm.CacheLen || rm.ViewLen != sm.ViewLen || rm.Updates != sm.Updates {
		t.Errorf("cache, view, updates: real %d, %d, %d, simulated %d, %d, %d",
			rm.CacheLen, rm.ViewLen, rm.Updates, sm.CacheLen, sm.ViewLen, sm.Updates)
	}
	for i := range realLens {
		if realLens[i] != simLens[i] {
			t.Errorf("after StepBatch call %d the snapshot holds %d bytes, simulated %d", i+1, realLens[i], simLens[i])
			break
		}
	}
	return f, real0, released
}

// TestSimulatorSweep runs checkSimulated over the overflowing row and 500
// drawn deployments. Together they must release, drop pairs at a delta cap
// and conserve every real pair, so the sweep is not vacuous.
func TestSimulatorSweep(t *testing.T) {
	ds := []deployment{overflowing}
	for seed := range int64(500) {
		ds = append(ds, drawDeployment(seed))
	}
	released, lost := 0, 0
	for i, d := range ds {
		f, _, n := checkSimulated(t, d)
		m := f.Metrics()
		if got := m.ViewReal + m.CacheReal + m.LostReal; got != m.Created {
			t.Errorf("view %d + cache %d + lost %d = %d != created %d", m.ViewReal, m.CacheReal, m.LostReal, got, m.Created)
		}
		if t.Failed() {
			if i == 0 {
				t.Fatal("the overflowing row fails the check")
			}
			t.Fatalf("drawDeployment(%d) fails the check", i-1)
		}
		released += min(n, 1)
		lost += m.LostReal
	}
	if released < len(ds)/2 || lost == 0 {
		t.Fatalf("%d of %d deployments released, %d pairs lost: the sweep is vacuous", released, len(ds), lost)
	}
}

// FuzzSimulator runs checkSimulated on the deployment drawDeployment draws
// from the seed. The seed corpus (testdata/fuzz/FuzzSimulator) holds three
// ordinary draws and the two first draws whose delta cap binds, 388 and 752.
func FuzzSimulator(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSimulated(t, drawDeployment(seed))
	})
}

// runCut feeds steps to f in StepBatch calls of cut steps.
func runCut(f *Framework, steps []workload.Step, cut int) {
	for i := 0; i < len(steps); i += cut {
		f.StepBatch(steps[i:min(i+cut, len(steps))])
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
	if want := (wl.Steps - 1) / FlushEvery; n != want {
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
	f, _, real1 := newRecorded(t, cfg, timer)
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
