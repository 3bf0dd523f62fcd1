// Package sim drives engines over workload traces and scores them: it
// implements the evaluation harness of Section 7 — one standing query per
// time step, L1 error against the logical ground truth, query execution
// time, protocol times, and view sizes.
package sim

import (
	"fmt"
	"math"

	"incshrink/internal/core"
	"incshrink/internal/workload"
)

// Result aggregates one engine's run over one trace.
type Result struct {
	AvgL1  float64
	AvgRel float64 // mean of L1_t / truth_t over steps with truth > 0
	AvgQET float64

	AvgTransformSecs float64
	AvgShrinkSecs    float64
	TotalMPCSecs     float64
	TotalQuerySecs   float64

	ViewBytes int64
}

// runAccum carries the per-step scoring state of a run. It lives outside
// the engine so a run can hand off between engines mid-trace (the
// crash-recovery harness snapshots one engine and continues on a restored
// one) while the accumulated score covers the whole trace.
type runAccum struct {
	truth                 int
	sumL1, sumRel, sumQET float64
	queries               int
}

// step feeds one trace step to the engine, accumulates the ground truth and
// issues the standing query, the paper's "one test query at each time step".
func (a *runAccum) step(e core.Engine, st workload.Step) {
	e.Step(st)
	a.truth += st.NewPairs
	res, qet := e.Query()
	l1 := math.Abs(float64(a.truth - res))
	a.sumL1 += l1
	if a.truth > 0 {
		a.sumRel += l1 / float64(a.truth)
	}
	a.sumQET += qet
	a.queries++
}

// result finalizes the run from the engine that finished the trace.
func (a *runAccum) result(e core.Engine) Result {
	m := e.Metrics()
	r := Result{
		AvgTransformSecs: m.AvgTransformSecs(),
		AvgShrinkSecs:    m.AvgShrinkSecs(),
		TotalMPCSecs:     m.TotalMPCSecs,
		TotalQuerySecs:   m.QuerySecs,
		ViewBytes:        m.ViewBytes,
	}
	if a.queries > 0 {
		r.AvgL1 = a.sumL1 / float64(a.queries)
		r.AvgRel = a.sumRel / float64(a.queries)
		r.AvgQET = a.sumQET / float64(a.queries)
	}
	return r
}

// Run drives the engine over every step of the trace.
func Run(e core.Engine, tr *workload.Trace) Result {
	var a runAccum
	for _, st := range tr.Steps {
		a.step(e, st)
	}
	return a.result(e)
}

// RunWithRestart drives e over the first k steps of the trace, hands it to
// reload — which returns the engine to continue with, typically one rebuilt
// from a durability snapshot of e — and finishes the trace on the returned
// engine. The Result scores the whole trace across the hand-off, so with an
// exact snapshot/restore it must be byte-identical to Run's (that is the
// crash-recovery acceptance criterion pinned in internal/experiments).
func RunWithRestart(e core.Engine, tr *workload.Trace, k int, reload func(core.Engine) (core.Engine, error)) (Result, error) {
	k = min(max(k, 0), len(tr.Steps))
	var a runAccum
	for _, st := range tr.Steps[:k] {
		a.step(e, st)
	}
	e2, err := reload(e)
	if err != nil {
		return Result{}, fmt.Errorf("sim: reload after step %d: %w", k, err)
	}
	for _, st := range tr.Steps[k:] {
		a.step(e2, st)
	}
	return a.result(e2), nil
}

// EngineKind names the five comparison candidates of Table 2.
type EngineKind string

// The candidates.
const (
	KindTimer EngineKind = "DP-Timer"
	KindANT   EngineKind = "DP-ANT"
	KindOTM   EngineKind = "OTM"
	KindEP    EngineKind = "EP"
	KindNM    EngineKind = "NM"
)

// AllKinds lists every candidate in Table 2 order.
var AllKinds = []EngineKind{KindTimer, KindANT, KindOTM, KindEP, KindNM}

// Build constructs an engine of the given kind for the trace wl generates:
// the engine runs under that trace's Shape, whatever cfg declared.
func Build(kind EngineKind, cfg core.Config, wl workload.Config) (core.Engine, error) {
	cfg.Shape = core.ShapeOf(wl)
	switch kind {
	case KindTimer:
		return core.NewTimerEngine(cfg)
	case KindANT:
		return core.NewANTEngine(cfg)
	case KindOTM:
		return core.NewOTMEngine(cfg, wl.MaxMultiplicity)
	case KindEP:
		return core.NewEPEngine(cfg, wl.MaxMultiplicity)
	case KindNM:
		return core.NewNMEngine(cfg, wl.MaxMultiplicity)
	default:
		return nil, fmt.Errorf("sim: unknown engine kind %q", kind)
	}
}

// RunKind generates nothing; it builds and runs one candidate over an
// existing trace.
func RunKind(kind EngineKind, cfg core.Config, tr *workload.Trace) (Result, error) {
	e, err := Build(kind, cfg, tr.Config)
	if err != nil {
		return Result{}, err
	}
	return Run(e, tr), nil
}

// Improvement returns base/x as a human-oriented ratio, guarding zeros
// (Table 2's "Imp." columns).
func Improvement(base, x float64) float64 {
	if x == 0 {
		if base == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return base / x
}
