package mpc

import (
	"sync/atomic"
	"time"

	"incshrink/internal/obs"
)

// CostObserver is the ROADMAP's cost-model validation hook: it accumulates
// the Meter's modeled seconds next to measured wall time per operation
// class, and exposes their ratio as the incshrink_mpc_predicted_vs_measured
// family. Bytes have one source, the measured wire tally. A ratio near the
// deployment's calibration constant means the gate-count model tracks
// reality; drift means the CostModel constants need re-fitting.
//
// The observer is write-only from the engine's point of view (the ratio
// gauges are derived from the observer's own counters at scrape time, never
// read back), so attaching one cannot perturb a deterministic run.
type CostObserver struct {
	totals [numTotals]*obs.CounterVec
	// children caches each class's label children, each resolved once, so a
	// warm Observe makes no label lookup.
	children         [numOps][numTotals]atomic.Pointer[obs.Counter]
	ratio, wireRatio *obs.GaugeVec
}

// The per-class totals, indexing CostObserver.totals.
const (
	totPredicted = iota
	totMeasured
	totWireRounds
	totWireWords
	totWireBytes
	numTotals
)

// NewCostObserver registers the mpc cost families on r. Registration is
// idempotent: two observers over one registry share the same series.
func NewCostObserver(r *obs.Registry) *CostObserver {
	o := &CostObserver{
		totals: [numTotals]*obs.CounterVec{
			r.CounterVec("incshrink_mpc_predicted_seconds_total",
				"modeled secure-computation seconds charged by the cost meter, by operation class", "op"),
			r.CounterVec("incshrink_mpc_measured_seconds_total",
				"measured wall seconds spent in the same operations, by operation class", "op"),
			r.CounterVec("incshrink_mpc_wire_rounds_total",
				"measured transport rounds from the party connection counters, by operation class", "op"),
			r.CounterVec("incshrink_mpc_wire_words_total",
				"runtime words shipped per party, from the party runtime's word count, by operation class", "op"),
			r.CounterVec("incshrink_mpc_wire_bytes_total",
				"measured transport frame bytes from the party connection counters, by operation class", "op"),
		},
		ratio: r.GaugeVec("incshrink_mpc_predicted_vs_measured",
			"ratio of cumulative modeled seconds to cumulative measured wall seconds, by operation class", "op"),
		wireRatio: r.GaugeVec("incshrink_mpc_predicted_vs_measured_wire_bytes",
			"ratio of wire bytes predicted from the measured rounds and words (2·(5 + 4·w) per round of w words) to measured wire bytes, by operation class", "op"),
	}
	r.OnGather(o.gather)
	return o
}

// child returns one class's label child of a total, resolving it on first
// use (two racing first uses resolve the same series).
func (o *CostObserver) child(op Op, total int) *obs.Counter {
	p := &o.children[op][total]
	if c := p.Load(); c != nil {
		return c
	}
	c := o.totals[total].With(op.String())
	p.Store(c)
	return c
}

// Observe records one completed operation: the meter's modeled seconds for
// the phase against the measured wall duration and the runtime's measured
// wire deltas (rounds, words, frame bytes). A delta that is not positive
// adds nothing, so a class's series appears on its first positive delta and
// no series ever reads 0.
func (o *CostObserver) Observe(op Op, predictedSeconds float64, measured time.Duration, wireRounds, wireWords, wireBytes uint64) {
	if o == nil {
		return
	}
	deltas := [numTotals]float64{predictedSeconds, measured.Seconds(), float64(wireRounds), float64(wireWords), float64(wireBytes)}
	for total, d := range deltas {
		if d > 0 {
			o.child(op, total).Add(d)
		}
	}
}

// gather derives the ratio gauges of every measured class from its
// cumulative totals at scrape time. A series the class never brought up
// reads 0 and stays absent.
func (o *CostObserver) gather() {
	for op := range Op(numOps) {
		total := func(t int) float64 {
			if c := o.children[op][t].Load(); c != nil {
				return c.Value()
			}
			return 0
		}
		if meas := total(totMeasured); meas > 0 {
			o.ratio.With(op.String()).Set(total(totPredicted) / meas)
		}
		// The runtime's frame shape prices a round of w words at 2·(5 + 4·w)
		// bytes; the gauge sits at 1.0 while traffic is pure runtime rounds
		// and drifts when other frame shapes (GMW AND openings) mix in.
		if wb := total(totWireBytes); wb > 0 {
			predicted := exchangeBytes(uint64(total(totWireRounds)), uint64(total(totWireWords)))
			o.wireRatio.With(op.String()).Set(float64(predicted) / wb)
		}
	}
}

// WireProbe captures a runtime's cumulative per-party wire tally and word
// count so a caller can compute the rounds, words and frame bytes one
// operation moved. It is a value: take one before the operation, call Delta
// after.
type WireProbe struct {
	rounds, words, bytes uint64
}

// WireProbe snapshots the runtime's current wire tally and word count.
func (r *Runtime) WireProbe() WireProbe {
	rounds, bytes := r.WireTally()
	return WireProbe{rounds: rounds, words: r.ps[0].words, bytes: bytes}
}

// Delta returns the wire rounds, words and bytes the runtime moved since the
// probe was taken.
func (p WireProbe) Delta(r *Runtime) (rounds, words, bytes uint64) {
	nr, nb := r.WireTally()
	return nr - p.rounds, r.ps[0].words - p.words, nb - p.bytes
}
