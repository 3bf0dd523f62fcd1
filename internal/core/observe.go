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
	cost         *mpc.CostObserver
}

// The engine phases of incshrink_core_phase_seconds: transform, shrink and
// query are probed and charged to their mpc op; pad is a section of
// transform.
const (
	phaseTransform = iota
	phaseShrink
	phaseQuery
	phasePad
)

var (
	phaseNames = [...]string{"transform", "shrink", "query", "pad"}
	phaseOps   = [...]mpc.Op{mpc.OpTransform, mpc.OpShrink, mpc.OpQuery}
	sideNames  = [2]string{"left", "right"}
)

// NewInstrumentSet registers the core and mpc families on r. Registration
// is idempotent, so several sets over one registry share series.
func NewInstrumentSet(r *obs.Registry) *InstrumentSet {
	s := &InstrumentSet{
		// 1µs to ~67s: transform on a padded batch sits in the middle of the
		// ladder, a single oblivious count near the bottom.
		phaseSeconds: r.HistogramVec("incshrink_core_phase_seconds",
			"wall time per engine phase (transform, shrink, pad, query)", obs.ExpBuckets(1e-6, 4, 14), "view", "phase"),
		windowSize: r.GaugeVec("incshrink_core_window_records",
			"padded rows the stream holds in the join carry (public: whole upload blocks, pads included)", "view", "side"),
		windowBlocks: r.GaugeVec("incshrink_core_window_blocks",
			"live upload blocks in the stream's budget ledger", "view", "side"),
		cacheLen: r.GaugeVec("incshrink_core_cache_len",
			"public length of the secure cache", "view"),
		viewLen: r.GaugeVec("incshrink_core_view_len",
			"public length of the materialized view", "view"),
		cost: mpc.NewCostObserver(r),
	}
	registerSortGauges(r)
	return s
}

// registerSortGauges exports the process-wide comparator-network table
// counters of internal/oblivious, snapshotted from the package atomics at
// gather time (OnGather). A sort replays a prefix of every layer of the
// retained network on the next power of two, so under real multi-tenant load
// misses stops at one build per table (13 at most, 2 to 8,192 wires) and
// pairs at what those tables hold (~565 k), whatever lengths clients make the
// engines sort; a moving evictions gauge means sorts above the table limit,
// which stream their network instead. Registration is idempotent; a second
// InstrumentSet's hook just re-Sets the same snapshot.
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
	ins := &Instruments{
		cacheLen: s.cacheLen.With(view),
		viewLen:  s.viewLen.With(view),
		cost:     s.cost,
	}
	for p, name := range phaseNames {
		ins.phaseSeconds[p] = s.phaseSeconds.With(view, name)
	}
	for side, name := range sideNames {
		ins.windowRows[side] = s.windowSize.With(view, name)
		ins.windowBlocks[side] = s.windowBlocks.With(view, name)
	}
	return ins
}

// Drop removes the label children ForView resolved for a dropped view, so
// stale tenants do not linger on /metrics.
func (s *InstrumentSet) Drop(view string) {
	for _, name := range phaseNames {
		s.phaseSeconds.Delete(view, name)
	}
	for _, name := range sideNames {
		s.windowSize.Delete(view, name)
		s.windowBlocks.Delete(view, name)
	}
	s.cacheLen.Delete(view)
	s.viewLen.Delete(view)
}

// Instruments is one view's resolved instrument children. A nil
// *Instruments is fully functional and free: every method no-ops, so the
// engine's hot paths carry no branches beyond the nil check and an
// uninstrumented Framework behaves exactly as before.
type Instruments struct {
	phaseSeconds [len(phaseNames)]*obs.Histogram
	windowRows   [2]*obs.Gauge // by stream side
	windowBlocks [2]*obs.Gauge
	cacheLen     *obs.Gauge
	viewLen      *obs.Gauge
	cost         *mpc.CostObserver
	padPending   time.Duration // pad time of blocks admitted, not yet transformed
}

// now reads the sanctioned clock, or 0 when uninstrumented.
func (ins *Instruments) now() obs.Ticks {
	if ins == nil {
		return 0
	}
	return obs.Now()
}

// phaseProbe is one open phase measurement — a clock reading, the meter's
// modeled seconds for the phase's op and a probe of the runtime's wire tally
// — so phaseDone can attribute wall time, modeled and wire deltas to it.
type phaseProbe struct {
	phase   int
	start   obs.Ticks
	seconds float64
	wire    mpc.WireProbe
}

// phaseStart opens a measurement of a phase.
func (ins *Instruments) phaseStart(rt *mpc.Runtime, p int) phaseProbe {
	if ins == nil {
		return phaseProbe{}
	}
	return phaseProbe{phase: p, start: obs.Now(), seconds: rt.Meter.Seconds(phaseOps[p]), wire: rt.WireProbe()}
}

// phaseDone closes a phase: the wall duration lands in the phase histogram
// and, paired with the meter's modeled delta and the connection counters'
// wire delta for the phase's op, feeds the predicted-vs-measured cost
// accounting.
func (ins *Instruments) phaseDone(p phaseProbe, rt *mpc.Runtime) {
	if ins == nil {
		return
	}
	elapsed := obs.Since(p.start)
	if p.phase == phaseTransform {
		// Its blocks were padded at admission: that is part of this Transform.
		elapsed, ins.padPending = elapsed+ins.padPending, 0
	}
	ins.phaseSeconds[p.phase].ObserveDuration(elapsed)
	op := phaseOps[p.phase]
	rounds, words, wireBytes := p.wire.Delta(rt)
	ins.cost.Observe(op, rt.Meter.Seconds(op)-p.seconds, elapsed, rounds, words, wireBytes)
}

// observePad records the padding section of one transform.
func (ins *Instruments) observePad(start obs.Ticks) {
	if ins == nil {
		return
	}
	d := obs.Since(start)
	ins.phaseSeconds[phasePad].ObserveDuration(d)
	ins.padPending += d
}

// stepDone refreshes the per-view state gauges after one ingested step.
func (ins *Instruments) stepDone(f *Framework) {
	if ins == nil {
		return
	}
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
