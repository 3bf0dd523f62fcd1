package core

import (
	"incshrink/internal/mpc"
	"incshrink/internal/workload"
)

// NewEPEngine builds the exhaustive-padding baseline of Section 7: the view
// is updated at every upload with the maximally padded Transform output — no
// DP, no cache, no truncation (the bound is the workload's maximum
// multiplicity, so no real entry is ever dropped). Queries are exact but must
// scan a view that is almost entirely dummy slots, which is what makes EP
// slow.
func NewEPEngine(cfg Config, wl workload.Config) (*Framework, error) {
	// EP reuses the Transform machinery with an un-truncating bound and a
	// pass-through Shrink that moves every cached slot straight to the view
	// (it never flushes or prunes: those belong to the DP protocols).
	cfg.Omega = wl.MaxMultiplicity
	cfg.Budget = 0 // unlimited: EP provides no DP guarantee
	f, err := New(cfg, wl, &passthroughShrink{})
	if err != nil {
		return nil, err
	}
	f.rawDelta = true // the defining naivety: no dummy elimination, ever
	return f, nil
}

// passthroughShrink moves the whole cache into the view every step, without
// sorting or noise: the view becomes the concatenation of all padded
// Transform outputs.
type passthroughShrink struct{}

func (passthroughShrink) Name() string    { return "EP" }
func (passthroughShrink) Init(*Framework) {}
func (passthroughShrink) Tick(f *Framework, _ int) {
	if f.cache.Len() == 0 {
		return
	}
	// Straight append: no oblivious sort is needed because every slot moves.
	f.cache.DrainInto(f.view)
	f.rt.ShareToServers(counterKey, 0)
}

// OTM is the one-time-materialization baseline: the view is built from the
// first upload and never updated again. Queries are fast (tiny view) but the
// error grows with every unsynchronized entry.
type OTM struct {
	f            *Framework
	materialized bool
}

// NewOTMEngine builds the OTM baseline.
func NewOTMEngine(cfg Config, wl workload.Config) (*OTM, error) {
	cfg.Omega = wl.MaxMultiplicity
	cfg.Budget = 0
	f, err := New(cfg, wl, &noopShrink{})
	if err != nil {
		return nil, err
	}
	return &OTM{f: f}, nil
}

type noopShrink struct{}

func (noopShrink) Name() string         { return "OTM" }
func (noopShrink) Init(*Framework)      {}
func (noopShrink) Tick(*Framework, int) {}

// Step implements Engine: only the first upload is transformed and
// materialized; everything afterwards is ignored (the view is frozen).
func (o *OTM) Step(st workload.Step) {
	if o.materialized {
		return
	}
	o.f.Step(st)
	if o.f.cache.Len() > 0 {
		o.f.cache.DrainInto(o.f.view)
		o.materialized = true
	}
}

// Query implements Engine.
func (o *OTM) Query() (int, float64) { return o.f.Query() }

// Metrics implements Engine.
func (o *OTM) Metrics() Metrics { return o.f.Metrics() }

// Name implements Engine.
func (o *OTM) Name() string { return "OTM" }

// NM is the non-materialization baseline (the standard SOGDB model of
// DP-Sync): there is no view; every query re-evaluates the full oblivious
// join over the entire outsourced history. The simulator takes the exact
// answer from the trace's ground truth (the oblivious join is untruncated, so
// its output equals the logical join) and charges the full garbled-circuit
// cost of sorting and scanning the complete data, which is what produces the
// paper's 7,800x-1.5e5x gaps.
type NM struct {
	wl    workload.Config
	meter *mpc.Meter

	rows      int // tuples outsourced so far, both relations
	truth     int
	queries   int
	querySecs float64
}

// NewNMEngine builds the NM baseline.
func NewNMEngine(cfg Config, wl workload.Config) (*NM, error) {
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	return &NM{wl: wl, meter: mpc.NewMeter(mpc.DefaultCostModel())}, nil
}

// Step implements Engine: outsourced data just accumulates.
func (n *NM) Step(st workload.Step) {
	n.rows += len(st.Left) + len(st.Right)
	n.truth += st.NewPairs
}

// Query implements Engine: exact answer, full-join cost.
func (n *NM) Query() (int, float64) {
	before := n.meter.Seconds(mpc.OpQuery)
	// One oblivious sort of the unioned relations on the join key, followed
	// by the truncated scan emitting maxMultiplicity slots per tuple — the
	// Transform join's price, over the entire history and nothing carried.
	priceJoin(n.meter, mpc.OpQuery, 0, n.rows, n.wl.MaxMultiplicity)
	qet := n.meter.Seconds(mpc.OpQuery) - before
	n.queries++
	n.querySecs += qet

	// The oblivious join over all data is exact; the plaintext oracle gives
	// the same number. Recomputing it via table.JoinWithin every step would
	// be quadratic in the horizon, so we use the accumulated truth.
	return n.truth, qet
}

// Metrics implements Engine.
func (n *NM) Metrics() Metrics {
	return Metrics{
		Queries:   n.queries,
		QuerySecs: n.querySecs,
	}
}

// Name implements Engine.
func (n *NM) Name() string { return "NM" }

var (
	_ Engine = (*Framework)(nil)
	_ Engine = (*OTM)(nil)
	_ Engine = (*NM)(nil)
)
