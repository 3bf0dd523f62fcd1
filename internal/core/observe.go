package core

import (
	"time"

	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/obs"
)

// InstrumentSet registers the core engine's metric families on a registry,
// once, with a view label — every hosted view shares the families and owns
// its own label children. The mpc predicted-vs-measured families are
// view-agnostic (cost-model validation aggregates across tenants) and are
// registered here too so one attach call wires both layers.
type InstrumentSet struct {
	phaseSeconds *obs.HistogramVec
	windowSize   *obs.GaugeVec
	windowBlocks *obs.GaugeVec
	cacheLen     *obs.GaugeVec
	viewLen      *obs.GaugeVec
	steps        *obs.CounterVec
	queries      *obs.CounterVec
	cost         *mpc.CostObserver
}

// phaseBuckets spans 1µs to ~67s: transform on a padded batch sits in the
// middle of the ladder, a single oblivious count near the bottom.
func phaseBuckets() []float64 { return obs.ExpBuckets(1e-6, 4, 14) }

// NewInstrumentSet registers the core and mpc families on r. Registration
// is idempotent, so several sets over one registry share series.
func NewInstrumentSet(r *obs.Registry) *InstrumentSet {
	s := &InstrumentSet{
		phaseSeconds: r.HistogramVec("incshrink_core_phase_seconds",
			"wall time per engine phase (transform, shrink, pad, query)", phaseBuckets(), "view", "phase"),
		windowSize: r.GaugeVec("incshrink_core_window_records",
			"padded rows the stream holds in the join carry (public: whole upload blocks, pads included)", "view", "side"),
		windowBlocks: r.GaugeVec("incshrink_core_window_blocks",
			"live upload blocks in the stream's budget ledger", "view", "side"),
		cacheLen: r.GaugeVec("incshrink_core_cache_len",
			"public length of the secure cache", "view"),
		viewLen: r.GaugeVec("incshrink_core_view_len",
			"public length of the materialized view", "view"),
		steps: r.CounterVec("incshrink_core_steps_total",
			"workload time steps ingested", "view"),
		queries: r.CounterVec("incshrink_core_queries_total",
			"predicate-count queries answered", "view"),
		cost: mpc.NewCostObserver(r),
	}
	registerSortGauges(r)
	return s
}

// registerSortGauges exports the process-wide comparator-network table
// counters of internal/oblivious. The values are snapshotted from the package
// atomics at gather time (OnGather). A sort replays a prefix of every layer
// of the retained network on the next power of two, so under real
// multi-tenant load misses stops at one build per table (13 at most, 2 to
// 8,192 wires) and pairs at what those tables hold (~565 k), whatever
// lengths clients make the engines sort; a moving evictions gauge means
// sorts above the table limit, which stream their network instead. Gauge
// registration is
// idempotent; a duplicate hook from a second InstrumentSet just re-Sets the
// same snapshot, which is harmless.
func registerSortGauges(r *obs.Registry) {
	cacheHits := r.Gauge("incshrink_core_comparator_cache_hits",
		"sorts that replayed a retained power-of-two comparator network")
	cacheMisses := r.Gauge("incshrink_core_comparator_cache_misses",
		"comparator network tables built (at most one per power of two, ever)")
	cacheEvictions := r.Gauge("incshrink_core_comparator_cache_evictions",
		"sorts above the table size limit, which streamed their network without retaining it")
	cachePairs := r.Gauge("incshrink_core_comparator_cache_pairs",
		"comparator pairs retained by the tables built so far")
	r.OnGather(func() {
		h, m, e, p := oblivious.CacheStats()
		cacheHits.Set(float64(h))
		cacheMisses.Set(float64(m))
		cacheEvictions.Set(float64(e))
		cachePairs.Set(float64(p))
	})
}

// ForView resolves the label children for one hosted view.
func (s *InstrumentSet) ForView(view string) *Instruments {
	return &Instruments{
		transformSeconds: s.phaseSeconds.With(view, "transform"),
		shrinkSeconds:    s.phaseSeconds.With(view, "shrink"),
		padSeconds:       s.phaseSeconds.With(view, "pad"),
		querySeconds:     s.phaseSeconds.With(view, "query"),
		windowRows:       [2]*obs.Gauge{s.windowSize.With(view, "left"), s.windowSize.With(view, "right")},
		windowBlocks:     [2]*obs.Gauge{s.windowBlocks.With(view, "left"), s.windowBlocks.With(view, "right")},
		cacheLen:         s.cacheLen.With(view),
		viewLen:          s.viewLen.With(view),
		steps:            s.steps.With(view),
		queries:          s.queries.With(view),
		cost:             s.cost,
	}
}

// Drop removes a dropped view's label children so stale tenants do not
// linger on /metrics.
func (s *InstrumentSet) Drop(view string) {
	for _, phase := range []string{"transform", "shrink", "pad", "query"} {
		s.phaseSeconds.Delete(view, phase)
	}
	for _, side := range []string{"left", "right"} {
		s.windowSize.Delete(view, side)
		s.windowBlocks.Delete(view, side)
	}
	s.cacheLen.Delete(view)
	s.viewLen.Delete(view)
	s.steps.Delete(view)
	s.queries.Delete(view)
}

// Instruments is one view's resolved instrument children. A nil
// *Instruments is fully functional and free: every method no-ops, so the
// engine's hot paths carry no branches beyond the nil check and an
// uninstrumented Framework behaves exactly as before.
type Instruments struct {
	transformSeconds *obs.Histogram
	shrinkSeconds    *obs.Histogram
	padSeconds       *obs.Histogram
	querySeconds     *obs.Histogram
	windowRows       [2]*obs.Gauge // by stream side
	windowBlocks     [2]*obs.Gauge
	cacheLen         *obs.Gauge
	viewLen          *obs.Gauge
	steps            *obs.Counter
	queries          *obs.Counter
	cost             *mpc.CostObserver
	padPending       time.Duration // pad time of blocks admitted, not yet transformed
}

// now reads the sanctioned clock, or 0 when uninstrumented.
func (ins *Instruments) now() obs.Ticks {
	if ins == nil {
		return 0
	}
	return obs.Now()
}

// phaseProbe is one open phase measurement: a clock reading, the op the
// phase is charged to and the meter's modeled seconds for it, and a probe of
// the runtime's wire tally, so phaseDone can attribute wall time, the modeled
// delta and the measured wire traffic to the phase.
type phaseProbe struct {
	start   obs.Ticks
	op      mpc.Op
	seconds float64
	wire    mpc.WireProbe
}

// phaseStart opens a measurement of a phase charged to op.
func (ins *Instruments) phaseStart(rt *mpc.Runtime, op mpc.Op) phaseProbe {
	if ins == nil {
		return phaseProbe{}
	}
	return phaseProbe{start: obs.Now(), op: op, seconds: rt.Meter.Seconds(op), wire: rt.WireProbe()}
}

// phaseDone closes a phase: the wall duration lands in the phase histogram
// and, paired with the meter's modeled delta and the connection counters'
// wire delta for the probe's op, feeds the predicted-vs-measured cost
// accounting.
func (ins *Instruments) phaseDone(phase string, p phaseProbe, rt *mpc.Runtime) {
	if ins == nil {
		return
	}
	elapsed := obs.Since(p.start)
	switch phase {
	case "transform":
		// Its blocks were padded at admission: that is part of this Transform.
		elapsed, ins.padPending = elapsed+ins.padPending, 0
		ins.transformSeconds.ObserveDuration(elapsed)
	case "shrink":
		ins.shrinkSeconds.ObserveDuration(elapsed)
	case "query":
		ins.querySeconds.ObserveDuration(elapsed)
		ins.queries.Inc()
	}
	rounds, words, wireBytes := p.wire.Delta(rt)
	ins.cost.Observe(p.op, rt.Meter.Seconds(p.op)-p.seconds, elapsed, rounds, words, wireBytes)
}

// observePad records the padding section of one transform.
func (ins *Instruments) observePad(start obs.Ticks) {
	if ins == nil {
		return
	}
	d := obs.Since(start)
	ins.padSeconds.ObserveDuration(d)
	ins.padPending += d
}

// stepDone refreshes the per-view state gauges after one ingested step.
func (ins *Instruments) stepDone(f *Framework) {
	if ins == nil {
		return
	}
	ins.steps.Inc()
	// Padded sizes from the public ledgers, never a count of real records.
	for s := range f.str {
		ins.windowRows[s].Set(float64(f.str[s].rows()))
		ins.windowBlocks[s].Set(float64(len(f.str[s].live)))
	}
	ins.cacheLen.Set(float64(f.cache.Len()))
	ins.viewLen.Set(float64(f.view.Len()))
}

// SetInstruments attaches (or, with nil, detaches) a view's instruments.
// Instruments observe the engine — phase wall times, window levels,
// modeled-vs-measured cost — but no engine decision ever reads
// them back; the non-perturbation tests pin that an instrumented run is
// byte-identical to a bare one.
func (f *Framework) SetInstruments(ins *Instruments) { f.ins = ins }
