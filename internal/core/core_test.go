package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/obs"
	"incshrink/internal/workload"
)

func mustTrace(t *testing.T, cfg workload.Config) *workload.Trace {
	t.Helper()
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// run drives an engine over a trace, returning per-step L1 errors.
func run(t *testing.T, e Engine, tr *workload.Trace) []float64 {
	t.Helper()
	truth := 0
	errs := make([]float64, 0, len(tr.Steps))
	for _, st := range tr.Steps {
		e.Step(st)
		truth += st.NewPairs
		res, _ := e.Query()
		errs = append(errs, math.Abs(float64(truth-res)))
	}
	return errs
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// meanQET is an engine's mean query execution time.
func meanQET(m Metrics) float64 { return m.QuerySecs / float64(m.Queries) }

func TestConfigValidate(t *testing.T) {
	wl := workload.TPCDS(100, 1)
	good := DefaultConfig(wl, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Epsilon = 0 },
		func(c *Config) { c.Epsilon = math.Inf(1) * 0 }, // NaN
		func(c *Config) { c.Omega = 0 },
		func(c *Config) { c.Budget = 1; c.Omega = 5 },
		func(c *Config) { c.Epsilon = math.Inf(1) }, // every Laplace scale would be 0
		func(c *Config) { c.Theta = -1 },
		func(c *Config) { c.Theta = math.NaN() },
		func(c *Config) { c.Theta = math.Inf(1) },
	}
	for i, mutate := range bad {
		c := DefaultConfig(wl, 1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDefaultConfigPerWorkload(t *testing.T) {
	tp := DefaultConfig(workload.TPCDS(100, 1), 1)
	if tp.Omega != 1 || tp.Budget != 10 {
		t.Errorf("TPC-ds omega/b = %d/%d, want 1/10", tp.Omega, tp.Budget)
	}
	if tp.T != 11 { // floor(30/2.7)
		t.Errorf("TPC-ds T = %d, want 11", tp.T)
	}
	cp := DefaultConfig(workload.CPDB(100, 1), 1)
	if cp.Omega != 10 || cp.Budget != 20 {
		t.Errorf("CPDB omega/b = %d/%d, want 10/20", cp.Omega, cp.Budget)
	}
	if cp.T != 3 { // floor(30/9.8)
		t.Errorf("CPDB T = %d, want 3", cp.T)
	}
	if tp.Epsilon != 1.5 || tp.Theta != 30 {
		t.Error("paper defaults not applied")
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	wl := workload.TPCDS(100, 1)
	cfg := DefaultConfig(wl, 1)
	if _, err := New(cfg, wl, nil); err == nil {
		t.Error("nil shrinker accepted")
	}
	cfg.Epsilon = -1
	if _, err := New(cfg, wl, &Timer{}); err == nil {
		t.Error("invalid config accepted")
	}
	cfg = DefaultConfig(wl, 1)
	wl.Steps = 0
	if _, err := New(cfg, wl, &Timer{}); err == nil {
		t.Error("invalid workload accepted")
	}
}

// TestInvocationsPerRecordSaturates: a record's invocation count over a
// window of MaxInt64 steps does not overflow. The budget bounds it, or
// nothing does and it is MaxInt.
func TestInvocationsPerRecordSaturates(t *testing.T) {
	wl := workload.Config{Within: math.MaxInt64, UploadEvery: 1}
	for _, c := range []struct{ budget, want int }{{10, 10}, {0, math.MaxInt}} {
		if got := invocationsPerRecord(Config{Omega: 1, Budget: c.budget}, wl); got != c.want {
			t.Errorf("budget %d: %d invocations per record, want %d", c.budget, got, c.want)
		}
	}
}

// TestNewRefusesOversizedDeployments: a deployment whose padded join output
// would pass maxJoinRows is refused before New pads its carry, whichever
// factor is large, and one at the cap is built.
func TestNewRefusesOversizedDeployments(t *testing.T) {
	base := workload.TPCDS(100, 1)
	width := base.MaxLeft + base.MaxRight
	for _, c := range []struct {
		name string
		edit func(*Config, *workload.Config)
		ok   bool
	}{
		{"unbounded window", func(c *Config, wl *workload.Config) { c.Budget, wl.Within = 0, math.MaxInt64 }, false},
		{"window and budget", func(c *Config, wl *workload.Config) { c.Budget, wl.Within = 1<<40, 1<<40 }, false},
		{"block", func(c *Config, wl *workload.Config) { wl.MaxLeft = 1 << 40 }, false},
		{"omega", func(c *Config, wl *workload.Config) { c.Omega, c.Budget = maxJoinRows/width+1, maxJoinRows/width+1 }, false},
		{"omega at the cap", func(c *Config, wl *workload.Config) { c.Omega, c.Budget = maxJoinRows/width, maxJoinRows/width }, true},
	} {
		cfg, wl := DefaultConfig(base, 1), base
		c.edit(&cfg, &wl)
		_, err := New(cfg, wl, &Timer{})
		if (err == nil) != c.ok {
			t.Errorf("%s: New error %v, want ok=%t", c.name, err, c.ok)
		}
	}
}

// TestSpillBound pins the derived spill: with a data rate it follows Theta,
// so it is 9 at the default Theta = 30 on both generators wherever Figure 5
// (epsilon) and Figure 7 (T) move the other parameters; without one it is
// max(omega, 2).
func TestSpillBound(t *testing.T) {
	for _, wl := range []workload.Config{workload.TPCDS(100, 1), workload.CPDB(100, 1)} {
		for _, T := range []int{1, 2, 5, 10, 20, 50, 100} {
			for _, eps := range []float64{0.01, 0.05, 0.1, 0.5, 1, 1.5, 5, 10, 50} {
				cfg := DefaultConfig(wl, 1)
				cfg.T, cfg.Epsilon = T, eps
				if got := spillBound(cfg, wl); got != 9 {
					t.Errorf("%s T=%d eps=%g: spill %d, want 9", wl.Name, T, eps, got)
				}
			}
		}
	}
	open := workload.TPCDS(100, 1)
	open.PairRate = 0
	for omega, want := range map[int]int{1: 2, 2: 2, 3: 3, 10: 10} {
		if got := spillBound(Config{Omega: omega, Theta: 30}, open); got != want {
			t.Errorf("no data rate, omega %d: spill %d, want %d", omega, got, want)
		}
	}
}

func TestTimerEndToEndTPCDS(t *testing.T) {
	wlCfg := workload.TPCDS(400, 42)
	tr := mustTrace(t, wlCfg)
	cfg := DefaultConfig(wlCfg, 42)
	cfg.T = 10
	f, err := NewTimerEngine(cfg, wlCfg)
	if err != nil {
		t.Fatal(err)
	}
	errs := run(t, f, tr)
	m := f.Metrics()
	if m.Updates == 0 {
		t.Fatal("no view updates happened")
	}
	if m.ViewReal == 0 {
		t.Fatal("no real tuples reached the view")
	}
	avg := mean(errs)
	if avg > 120 {
		t.Errorf("avg L1 error %v too large for defaults (paper: ~40)", avg)
	}
	// Relative error at the end of the horizon should be small (paper: 3%).
	final := errs[len(errs)-1]
	if rel := final / float64(tr.TotalPairs); rel > 0.25 {
		t.Errorf("final relative error %v too large", rel)
	}
}

func TestANTEndToEndTPCDS(t *testing.T) {
	wlCfg := workload.TPCDS(400, 42)
	tr := mustTrace(t, wlCfg)
	cfg := DefaultConfig(wlCfg, 42)
	f, err := NewANTEngine(cfg, wlCfg)
	if err != nil {
		t.Fatal(err)
	}
	errs := run(t, f, tr)
	m := f.Metrics()
	if m.Updates == 0 {
		t.Fatal("ANT never updated the view")
	}
	if avg := mean(errs); avg > 120 {
		t.Errorf("ANT avg L1 error %v too large", avg)
	}
	// At eps=1.5 the SVT check noise Lap(8b/eps) is large relative to
	// theta=30, so ANT fires well before the counter truly crosses the
	// threshold (Observation 3: small eps means more frequent updates). The
	// rate must exceed the noiseless 30/2.7~11-step cadence but not fire
	// every single step.
	updates := m.Updates
	if updates < 20 || updates > 300 {
		t.Errorf("ANT updates = %d over 400 steps, out of plausible range", updates)
	}
}

func TestTimerEndToEndCPDB(t *testing.T) {
	wlCfg := workload.CPDB(300, 7)
	tr := mustTrace(t, wlCfg)
	cfg := DefaultConfig(wlCfg, 7)
	f, err := NewTimerEngine(cfg, wlCfg)
	if err != nil {
		t.Fatal(err)
	}
	errs := run(t, f, tr)
	if f.Metrics().ViewReal == 0 {
		t.Fatal("CPDB: no real tuples reached the view")
	}
	// CPDB has omega=10 < max multiplicity 15, so some truncation error is
	// expected, but the average should stay well under OTM-level error.
	if avg := mean(errs); avg > 0.3*float64(tr.TotalPairs) {
		t.Errorf("CPDB avg error %v vs total %d: too large", avg, tr.TotalPairs)
	}
}

// TestConservation: every real entry ever created by Transform is either in
// the view, still in the cache, or was recycled by a flush/prune.
func TestConservation(t *testing.T) {
	for _, mk := range []func() (Engine, *workload.Trace){
		func() (Engine, *workload.Trace) {
			wl := workload.TPCDS(300, 9)
			tr := mustTrace(t, wl)
			f, _ := NewTimerEngine(DefaultConfig(wl, 9), wl)
			return f, tr
		},
		func() (Engine, *workload.Trace) {
			wl := workload.CPDB(300, 9)
			tr := mustTrace(t, wl)
			f, _ := NewANTEngine(DefaultConfig(wl, 9), wl)
			return f, tr
		},
	} {
		e, tr := mk()
		for _, st := range tr.Steps {
			e.Step(st)
			m := e.Metrics()
			if got := m.ViewReal + m.CacheReal + m.LostReal; got != m.Created {
				t.Fatalf("t=%d: view %d + cache %d + lost %d = %d != created %d",
					st.T, m.ViewReal, m.CacheReal, m.LostReal, got, m.Created)
			}
		}
	}
}

// TestCreatedNeverExceedsTruth: Transform can only materialize logical pairs
// (deferred or truncated pairs reduce, never inflate, the count).
func TestCreatedNeverExceedsTruth(t *testing.T) {
	wl := workload.TPCDS(300, 11)
	tr := mustTrace(t, wl)
	f, _ := NewTimerEngine(DefaultConfig(wl, 11), wl)
	truth := 0
	for _, st := range tr.Steps {
		f.Step(st)
		truth += st.NewPairs
		if f.Metrics().Created > truth {
			t.Fatalf("t=%d: created %d > truth %d", st.T, f.Metrics().Created, truth)
		}
	}
	// And with multiplicity 1 and omega 1, nearly everything is created.
	if c := f.Metrics().Created; float64(c) < 0.8*float64(truth) {
		t.Errorf("created %d of %d logical pairs; too much loss for omega=1", c, truth)
	}
}

// TestTimerLeakageSchedule: the servers observe DP-sized fetches only at
// multiples of T — exactly the support of the Mtimer mechanism in Thm. 7.
func TestTimerLeakageSchedule(t *testing.T) {
	wl := workload.TPCDS(200, 13)
	tr := mustTrace(t, wl)
	cfg := DefaultConfig(wl, 13)
	cfg.T = 10
	f, real0, _ := newRecorded(t, cfg, wl, &Timer{})
	for _, st := range tr.Steps {
		f.Step(st)
	}
	for _, ev := range real0.Events {
		if ev.Kind == mpc.EvFetchObserved && ev.Time%10 != 0 {
			t.Fatalf("fetch observed at t=%d, not a multiple of T=10", ev.Time)
		}
	}
	fetches := real0.SizesOf(mpc.EvFetchObserved)
	if len(fetches) != 19 { // t = 10, 20, ..., 190
		t.Errorf("observed %d fetches, want 19", len(fetches))
	}
}

// TestBatchSizesDataIndependent: the padded Transform batch sizes the
// servers observe must be identical across two workloads with the same
// configuration but different data — the exhaustive-padding guarantee.
func TestBatchSizesDataIndependent(t *testing.T) {
	mkSizes := func(seed int64) []int {
		wl := workload.TPCDS(150, seed)
		tr := mustTrace(t, wl)
		cfg := DefaultConfig(wl, 99) // same protocol seed: same noise draws
		f, _, real1 := newRecorded(t, cfg, wl, &Timer{})
		for _, st := range tr.Steps {
			f.Step(st)
		}
		return real1.SizesOf(mpc.EvBatchObserved)
	}
	a, b := mkSizes(1), mkSizes(2)
	if len(a) != len(b) {
		t.Fatalf("different batch counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("batch %d: size %d vs %d differ across datasets", i, a[i], b[i])
		}
	}
}

// TestFetchSizesAreNoisy: fetch sizes must not equal the true per-interval
// cardinalities systematically (they carry Laplace noise).
func TestFetchSizesAreNoisy(t *testing.T) {
	wl := workload.TPCDS(300, 17)
	tr := mustTrace(t, wl)
	cfg := DefaultConfig(wl, 17)
	cfg.T = 10
	f, real0, _ := newRecorded(t, cfg, wl, &Timer{})
	truthPerInterval := make(map[int]int)
	acc := 0
	for _, st := range tr.Steps {
		f.Step(st)
		acc += st.NewPairs
		if st.T%10 == 0 && st.T > 0 {
			truthPerInterval[st.T] = acc
			acc = 0
		}
	}
	exact := 0
	total := 0
	for _, ev := range real0.Events {
		if ev.Kind != mpc.EvFetchObserved {
			continue
		}
		total++
		if want, ok := truthPerInterval[ev.Time]; ok && ev.Size == want {
			exact++
		}
	}
	if total == 0 {
		t.Fatal("no fetches observed")
	}
	if exact == total {
		t.Error("every fetch equals the true cardinality: noise missing")
	}
}

// TestQueryChargesFullWidthScan: a query is charged as one pass over every
// view slot, dummies included, at the view's full tuple width — whichever
// columns its conditions read, and however few — and its answer is the
// kernel's over the view's columns.
func TestQueryChargesFullWidthScan(t *testing.T) {
	wl := workload.TPCDS(120, 29)
	f, _ := NewTimerEngine(DefaultConfig(wl, 29), wl)
	for _, st := range mustTrace(t, wl).Steps {
		f.Step(st)
	}
	if f.view.Len() == 0 || f.view.Real() == 0 {
		t.Fatal("view empty")
	}
	q1 := []oblivious.ScanCond{{Col: 3, Diff: 1, Lo: 0, Hi: 10 ^ 1<<63}} // right.time - left.time <= 10
	for _, conds := range [][]oblivious.ScanCond{nil, q1} {
		before := f.rt.Meter.Gates(mpc.OpQuery)
		n, qet := f.QueryWhere(conds)
		gates := f.rt.Meter.Gates(mpc.OpQuery) - before
		if want := float64(f.view.Len()) * 64 * 4 * f.rt.Meter.Model().ANDGatesPerScanBit; gates != want {
			t.Errorf("%d conditions: charged %v gates, want %v", len(conds), gates, want)
		}
		if qet <= 0 || n != f.view.Count(conds) {
			t.Errorf("%d conditions: answer %d (qet %v), view counts %d", len(conds), n, qet, f.view.Count(conds))
		}
	}
	if n, _ := f.Query(); n != f.view.Real() {
		t.Errorf("standing query answers %d, view holds %d real tuples", n, f.view.Real())
	}
}

// TestBudgetLifetimeContribution: no record contributes more than b view
// entries over its lifetime (KI-3). The generator gives every left record a
// fresh key (checked below), so a view entry's left.key column names the left
// record that produced it. Under the paper-default CPDB setting no record has
// more partners than budget, so the second deployment makes the budget bind:
// b = 2*omega = 4 against partners that keep arriving over three upload
// periods — a record that outlives its budget contributes up to 6 there.
func TestBudgetLifetimeContribution(t *testing.T) {
	binding := workload.CPDB(250, 19)
	binding.MaxLag = binding.Within
	for _, c := range []struct {
		name          string
		wl            workload.Config
		omega, budget int
	}{
		{name: "default", wl: workload.CPDB(250, 19)},
		{name: "budget-binds", wl: binding, omega: 2, budget: 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := mustTrace(t, c.wl)
			cfg := DefaultConfig(c.wl, 19)
			if c.omega > 0 {
				cfg.Omega, cfg.Budget = c.omega, c.budget
			}
			f, err := NewTimerEngine(cfg, c.wl)
			if err != nil {
				t.Fatal(err)
			}
			// Every entry is counted as its Transform's delta enters the
			// cache, so entries the view, the cache and the prune's recycled
			// tail hold all count.
			leftKeys := make(map[int64]bool)
			contrib := make(map[int64]int)
			for _, st := range tr.Steps {
				for _, r := range st.Left {
					if leftKeys[r.Row[workload.ColKey]] {
						t.Fatalf("left key %d uploaded twice: the key no longer identifies a record", r.Row[workload.ColKey])
					}
					leftKeys[r.Row[workload.ColKey]] = true
				}
				before := f.transforms
				f.Step(st)
				if f.transforms == before {
					continue
				}
				for b, i := f.deltaBuf, 0; i < b.Len(); i++ {
					if b.IsReal(i) {
						contrib[b.At(i, workload.ColKey)]++
					}
				}
			}
			most := 0
			for key, n := range contrib {
				if !leftKeys[key] {
					t.Fatalf("view entry with left.key %d, which no left record carried", key)
				}
				if n > cfg.Budget {
					t.Fatalf("record with key %d contributed %d entries, budget %d", key, n, cfg.Budget)
				}
				most = max(most, n)
			}
			if c.omega > 0 && most != cfg.Budget {
				t.Fatalf("largest contribution %d, budget %d: the budget never bound", most, cfg.Budget)
			}
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	wl := workload.TPCDS(150, 23)
	tr := mustTrace(t, wl)
	results := func() []float64 {
		f, _ := NewTimerEngine(DefaultConfig(wl, 23), wl)
		return run(t, f, tr)
	}
	a, b := results(), results()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: nondeterministic error %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEPBaselineExact(t *testing.T) {
	wl := workload.TPCDS(300, 29)
	tr := mustTrace(t, wl)
	e, err := NewEPEngine(DefaultConfig(wl, 29), wl)
	if err != nil {
		t.Fatal(err)
	}
	errs := run(t, e, tr)
	// EP has no DP noise and no truncation; only upload latency can defer a
	// pair by a step or two, so the error stays tiny.
	if avg := mean(errs); avg > 3 {
		t.Errorf("EP avg error %v, want about 0", avg)
	}
	// The EP view is exhaustively padded: far more slots than real entries.
	m := e.Metrics()
	if m.ViewLen < 5*m.ViewReal {
		t.Errorf("EP view %d slots for %d real entries: padding missing", m.ViewLen, m.ViewReal)
	}
}

func TestOTMBaselineFrozen(t *testing.T) {
	wl := workload.TPCDS(300, 31)
	tr := mustTrace(t, wl)
	e, err := NewOTMEngine(DefaultConfig(wl, 31), wl)
	if err != nil {
		t.Fatal(err)
	}
	errs := run(t, e, tr)
	m := e.Metrics()
	if m.Updates != 1 {
		t.Errorf("OTM updates = %d, want exactly 1", m.Updates)
	}
	// Error grows toward the total.
	if errs[len(errs)-1] < 0.8*float64(tr.TotalPairs) {
		t.Errorf("OTM final error %v, want near total %d", errs[len(errs)-1], tr.TotalPairs)
	}
	// But queries are nearly free.
	if meanQET(m) > 0.01 {
		t.Errorf("OTM QET %v, want tiny", meanQET(m))
	}
}

func TestNMBaselineExactAndSlow(t *testing.T) {
	wl := workload.TPCDS(300, 37)
	tr := mustTrace(t, wl)
	nm, err := NewNMEngine(DefaultConfig(wl, 37), wl)
	if err != nil {
		t.Fatal(err)
	}
	errs := run(t, nm, tr)
	if mean(errs) != 0 {
		t.Errorf("NM error %v, want 0", mean(errs))
	}
	// NM QET grows with history; final queries dominate.
	m := nm.Metrics()
	timer, _ := NewTimerEngine(DefaultConfig(wl, 37), wl)
	terrs := run(t, timer, tr)
	_ = terrs
	if meanQET(m) < 100*meanQET(timer.Metrics()) {
		t.Errorf("NM QET %v not dramatically above view-based %v",
			meanQET(m), meanQET(timer.Metrics()))
	}
}

func TestEngineNames(t *testing.T) {
	wl := workload.TPCDS(50, 1)
	cfg := DefaultConfig(wl, 1)
	f, _ := NewTimerEngine(cfg, wl)
	if f.Name() != "DP-Timer" {
		t.Errorf("timer name %q", f.Name())
	}
	a, _ := NewANTEngine(cfg, wl)
	if a.Name() != "DP-ANT" {
		t.Errorf("ant name %q", a.Name())
	}
	ep, _ := NewEPEngine(cfg, wl)
	if ep.Name() != "EP" {
		t.Errorf("ep name %q", ep.Name())
	}
	otm, _ := NewOTMEngine(cfg, wl)
	if otm.Name() != "OTM" {
		t.Errorf("otm name %q", otm.Name())
	}
	nm, _ := NewNMEngine(cfg, wl)
	if nm.Name() != "NM" {
		t.Errorf("nm name %q", nm.Name())
	}
}

func TestPruneKeepsErrorBounded(t *testing.T) {
	// With the prune bound well above the Theorem-4 bound, pruning should
	// lose no (or almost no) real tuples.
	wl := workload.TPCDS(400, 41)
	tr := mustTrace(t, wl)
	cfg := DefaultConfig(wl, 41)
	f, _ := NewTimerEngine(cfg, wl)
	for _, st := range tr.Steps {
		f.Step(st)
	}
	m := f.Metrics()
	if m.LostReal > tr.TotalPairs/20 {
		t.Errorf("prune lost %d of %d real tuples", m.LostReal, tr.TotalPairs)
	}
	// And the cache stayed bounded.
	if m.CacheMax > 10*f.prune {
		t.Errorf("cache peaked at %d despite prune bound %d", m.CacheMax, f.prune)
	}
}

func TestTimerVsANTSparseBurst(t *testing.T) {
	// Observation 5: Timer is more accurate on sparse data, ANT on burst.
	seed := int64(43)
	avgErr := func(wl workload.Config, ant bool) float64 {
		tr := mustTrace(t, wl)
		cfg := DefaultConfig(wl, seed)
		cfg.T = 10
		var e Engine
		if ant {
			e, _ = NewANTEngine(cfg, wl)
		} else {
			e, _ = NewTimerEngine(cfg, wl)
		}
		return mean(run(t, e, tr))
	}
	sparse := workload.Sparse(workload.TPCDS(600, seed))
	if timerErr, antErr := avgErr(sparse, false), avgErr(sparse, true); timerErr > antErr*1.5 {
		t.Errorf("sparse: timer err %v should not be far above ant err %v", timerErr, antErr)
	}
	burst := workload.Burst(workload.TPCDS(600, seed))
	if timerErr, antErr := avgErr(burst, false), avgErr(burst, true); antErr > timerErr*1.5 {
		t.Errorf("burst: ant err %v should not be far above timer err %v", antErr, timerErr)
	}
}

func BenchmarkTimerStepTPCDS(b *testing.B) {
	wl := workload.TPCDS(200, 99)
	tr, _ := workload.Generate(wl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := NewTimerEngine(DefaultConfig(wl, 99), wl)
		for _, st := range tr.Steps {
			f.Step(st)
		}
	}
}

// TestComparatorCacheGaugesAfterWarmANT scrapes the four
// incshrink_core_comparator_cache_* gauges after an sDPANT run over the CPDB
// trace — the deployment whose synchronisations keep sorting new cache
// lengths. Whatever else this process sorted, misses counts table builds and
// so cannot pass one per power of two (13 tables, 2 to 8,192 wires), and the
// run itself must show up as replays.
func TestComparatorCacheGaugesAfterWarmANT(t *testing.T) {
	wl := workload.CPDB(600, 7)
	f, err := NewANTEngine(DefaultConfig(wl, 7), wl)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	f.SetInstruments(NewInstrumentSet(reg).ForView("cpdb"))
	run(t, f, mustTrace(t, wl))
	if f.Metrics().Updates < 50 {
		t.Fatalf("only %d view updates: not a warm sDPANT run", f.Metrics().Updates)
	}
	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	gauge := map[string]float64{}
	for _, line := range strings.Split(scrape.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "incshrink_core_comparator_cache_"); ok {
			var v float64
			key, val, _ := strings.Cut(name, " ")
			if _, err := fmt.Sscan(val, &v); err != nil {
				t.Fatalf("unparsable sample %q: %v", line, err)
			}
			gauge[key] = v
		}
	}
	if len(gauge) != 4 {
		t.Fatalf("scraped %v, want hits, misses, evictions and pairs", gauge)
	}
	if gauge["misses"] < 1 || gauge["misses"] > 13 {
		t.Errorf("misses = %v, want between 1 and 13 table builds", gauge["misses"])
	}
	if gauge["hits"] < float64(f.Metrics().Updates) {
		t.Errorf("hits = %v after %d view updates, each of which sorted the cache", gauge["hits"], f.Metrics().Updates)
	}
	if gauge["pairs"] < 1 || gauge["pairs"] > 600_000 {
		t.Errorf("pairs = %v, want what at most 13 tables retain", gauge["pairs"])
	}
}

// TestWireBytesGaugePricesWords: a runtime round of w words moves
// 2·(5 + 4·w) bytes per party, so once the gauge prices rounds by the words
// they carry it reads exactly 1.0 for Transform and Shrink after a Timer and
// an sDPANT run — whose rounds carry up to 6 words each.
func TestWireBytesGaugePricesWords(t *testing.T) {
	for _, ant := range []bool{false, true} {
		f, tr := buildEngine(t, ant, 200)
		reg := obs.NewRegistry()
		f.SetInstruments(NewInstrumentSet(reg).ForView("v"))
		run(t, f, tr)
		var scrape strings.Builder
		if err := reg.WritePrometheus(&scrape); err != nil {
			t.Fatal(err)
		}
		gauge := map[string]float64{}
		for _, line := range strings.Split(scrape.String(), "\n") {
			if name, ok := strings.CutPrefix(line, "incshrink_mpc_predicted_vs_measured_wire_bytes"); ok {
				key, val, _ := strings.Cut(name, " ")
				var v float64
				if _, err := fmt.Sscan(val, &v); err != nil {
					t.Fatalf("unparsable sample %q: %v", line, err)
				}
				gauge[key] = v
			}
		}
		for _, op := range []string{`{op="Transform"}`, `{op="Shrink"}`} {
			if v, ok := gauge[op]; !ok || v != 1 {
				t.Errorf("%s (ANT %v): predicted/measured wire bytes %v (scraped: %v), want exactly 1", op, ant, v, ok)
			}
		}
	}
}

// TestWindowGaugesExportPaddedSizesOnly: the window gauges are inside the
// threat model — block padding exists to hide how many real records a stream
// holds, so two deployments of equal padded sizes fed different numbers of
// real records must scrape identical incshrink_core_window_* samples at
// every step (the gauges used to read the unpadded record table).
func TestWindowGaugesExportPaddedSizesOnly(t *testing.T) {
	scrapes := func(perStep int) (out []string) {
		f := windowEngine(t, 3, 8)
		reg := obs.NewRegistry()
		f.SetInstruments(NewInstrumentSet(reg).ForView("v"))
		for step := 0; step < 12; step++ {
			st := windowStep(step)
			st.Left, st.Right = st.Left[:perStep], st.Right[:perStep]
			f.Step(st)
			var scrape strings.Builder
			if err := reg.WritePrometheus(&scrape); err != nil {
				t.Fatal(err)
			}
			samples := ""
			for _, line := range strings.Split(scrape.String(), "\n") {
				if strings.HasPrefix(line, "incshrink_core_window_") {
					samples += line + "\n"
				}
			}
			out = append(out, samples)
		}
		return out
	}
	sparse, dense := scrapes(1), scrapes(4)
	for step := range sparse {
		if sparse[step] != dense[step] {
			t.Fatalf("step %d: window gauges tell 1 record per upload from 4:\n%s--- vs ---\n%s", step, sparse[step], dense[step])
		}
	}
	for _, want := range []string{
		`incshrink_core_window_records{view="v",side="left"} 24`,
		`incshrink_core_window_blocks{view="v",side="right"} 3`,
	} {
		if !strings.Contains(sparse[len(sparse)-1], want) {
			t.Errorf("last scrape lacks %q:\n%s", want, sparse[len(sparse)-1])
		}
	}
}

// TestCachedDeltasAreRealFirst: a delta Transform caches with
// AppendRealFirst, a tight compaction's output, must hold its reals first —
// the next read merges it with the cache's other runs instead of sorting it,
// and a delta out of order would leave a read's prefix short of real tuples.
// The compaction buffer is emptied before each step, so after the step it
// holds the delta that step cached, or nothing.
func TestCachedDeltasAreRealFirst(t *testing.T) {
	for _, wl := range []workload.Config{workload.TPCDS(200, 7), workload.CPDB(200, 7)} {
		for _, ant := range []bool{false, true} {
			cfg := DefaultConfig(wl, 7)
			f, err := NewTimerEngine(cfg, wl)
			if ant {
				f, err = NewANTEngine(cfg, wl)
			}
			if err != nil {
				t.Fatal(err)
			}
			cached, reals := 0, 0
			for _, st := range mustTrace(t, wl).Steps {
				f.deltaBuf.Reset()
				f.Step(st)
				if d := f.deltaBuf; d.Len() > 0 {
					if i := slices.Index(d.Flags(), false); i >= 0 && slices.Contains(d.Flags()[i:], true) {
						t.Fatalf("%s ant=%t step %d: a compacted delta is not real-first: %v", wl.Name, ant, st.T, d.Flags())
					}
					cached, reals = cached+1, reals+d.Real()
				}
			}
			if cached == 0 || reals == 0 {
				t.Errorf("%s ant=%t: %d compacted deltas, %d real tuples: nothing exercised", wl.Name, ant, cached, reals)
			}
		}
	}
}
