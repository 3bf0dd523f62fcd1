package mpc

import (
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
// gauge is derived from the observer's own counters, never read back), so
// attaching one cannot perturb a deterministic run.
type CostObserver struct {
	predictedSeconds *obs.CounterVec
	measuredSeconds  *obs.CounterVec
	wireRounds       *obs.CounterVec
	wireWords        *obs.CounterVec
	wireBytes        *obs.CounterVec
	ratio            *obs.GaugeVec
	wireRatio        *obs.GaugeVec
}

// NewCostObserver registers the mpc cost families on r. Registration is
// idempotent: two observers over one registry share the same series.
func NewCostObserver(r *obs.Registry) *CostObserver {
	return &CostObserver{
		predictedSeconds: r.CounterVec("incshrink_mpc_predicted_seconds_total",
			"modeled secure-computation seconds charged by the cost meter, by operation class", "op"),
		measuredSeconds: r.CounterVec("incshrink_mpc_measured_seconds_total",
			"measured wall seconds spent in the same operations, by operation class", "op"),
		wireRounds: r.CounterVec("incshrink_mpc_wire_rounds_total",
			"measured transport rounds from the party connection counters, by operation class", "op"),
		wireWords: r.CounterVec("incshrink_mpc_wire_words_total",
			"runtime words shipped per party, from the party runtime's word count, by operation class", "op"),
		wireBytes: r.CounterVec("incshrink_mpc_wire_bytes_total",
			"measured transport frame bytes from the party connection counters, by operation class", "op"),
		ratio: r.GaugeVec("incshrink_mpc_predicted_vs_measured",
			"ratio of cumulative modeled seconds to cumulative measured wall seconds, by operation class", "op"),
		wireRatio: r.GaugeVec("incshrink_mpc_predicted_vs_measured_wire_bytes",
			"ratio of wire bytes predicted from the measured rounds and words (2·(5 + 4·w) per round of w words) to measured wire bytes, by operation class", "op"),
	}
}

// Observe records one completed operation: the meter's modeled seconds for
// the phase against the measured wall duration and the runtime's measured
// wire deltas (rounds, words, frame bytes), then refreshes the ratio gauges
// from the cumulative totals. A delta that is not positive adds nothing.
func (o *CostObserver) Observe(op Op, predictedSeconds float64, measured time.Duration, wireRounds, wireWords, wireBytes uint64) {
	if o == nil {
		return
	}
	name := op.String()
	if predictedSeconds > 0 {
		o.predictedSeconds.With(name).Add(predictedSeconds)
	}
	if measured > 0 {
		o.measuredSeconds.With(name).Add(measured.Seconds())
	}
	if wireRounds > 0 {
		o.wireRounds.With(name).Add(float64(wireRounds))
	}
	if wireWords > 0 {
		o.wireWords.With(name).Add(float64(wireWords))
	}
	if wireBytes > 0 {
		o.wireBytes.With(name).Add(float64(wireBytes))
	}
	pred := o.predictedSeconds.With(name).Value()
	meas := o.measuredSeconds.With(name).Value()
	if meas > 0 {
		o.ratio.With(name).Set(pred / meas)
	}
	// The runtime's frame shape prices a round of w words at 2·(5 + 4·w)
	// bytes; the gauge sits at 1.0 while traffic is pure runtime rounds and
	// drifts when other frame shapes (GMW AND openings) mix in.
	if wb := o.wireBytes.With(name).Value(); wb > 0 {
		rounds, words := uint64(o.wireRounds.With(name).Value()), uint64(o.wireWords.With(name).Value())
		o.wireRatio.With(name).Set(float64(exchangeBytes(rounds, words)) / wb)
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
