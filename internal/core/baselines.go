package core

import (
	"incshrink/internal/mpc"
	"incshrink/internal/workload"
)

// NewEPEngine builds the exhaustive-padding baseline of Section 7: the view
// is updated at every upload with the maximally padded Transform output — no
// DP, no cache, no truncation (the bound is the streams' maximum
// multiplicity, so no real entry is ever dropped). Queries are exact but must
// scan a view that is almost entirely dummy slots, which is what makes EP
// slow.
func NewEPEngine(cfg Config, multiplicity int) (*Framework, error) {
	cfg.Omega, cfg.Budget = multiplicity, 0 // an unlimited budget: EP provides no DP guarantee
	return build(cfg, ep)
}

// NewOTMEngine builds the one-time-materialization baseline, untruncated like
// EP: the view is built from the first upload and never updated again.
// Queries are fast (tiny view) but the error grows with every unsynchronized
// entry.
func NewOTMEngine(cfg Config, multiplicity int) (*Framework, error) {
	cfg.Omega, cfg.Budget = multiplicity, 0
	return build(cfg, otm)
}

// drain is the baselines' Shrink: it moves the whole cache into the view,
// without sorting or noise (every slot moves, so no oblivious sort is
// needed), and never flushes or prunes — those belong to the DP protocols.
// EP's view becomes the concatenation of all padded Transform outputs, and EP
// resets the counter as the DP protocols do on a release. OTM's first drain
// is its one materialization: StepBatch ignores every step after it.
func (f *Framework) drain() {
	if f.cache.Len() == 0 {
		return
	}
	f.cache.DrainInto(f.view)
	if f.proto == ep {
		f.rt.ShareToServers(counterKey, 0)
	}
}

// NM is the non-materialization baseline (the standard SOGDB model of
// DP-Sync): there is no view; every query re-evaluates the full oblivious
// join over the entire outsourced history. The simulator takes the exact
// answer from the trace's ground truth (the oblivious join is untruncated, so
// its output equals the logical join) and charges the full garbled-circuit
// cost of sorting and scanning the complete data, which is what produces the
// paper's 7,800x-1.5e5x gaps.
type NM struct {
	multiplicity int
	meter        *mpc.Meter

	rows      int // tuples outsourced so far, both relations
	truth     int
	queries   int
	querySecs float64
}

// NewNMEngine builds the NM baseline, whose join is untruncated like EP's.
func NewNMEngine(cfg Config, multiplicity int) (*NM, error) {
	cfg.Omega, cfg.Budget = multiplicity, 0
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &NM{multiplicity: multiplicity, meter: mpc.NewMeter(mpc.DefaultCostModel())}, nil
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
	priceJoin(n.meter, mpc.OpQuery, 0, n.rows, n.multiplicity)
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

var (
	_ Engine = (*Framework)(nil)
	_ Engine = (*NM)(nil)
)
