// Package mpc simulates the server-aided two-party secure computation
// substrate IncShrink runs on.
//
// The paper evaluates on EMP-Toolkit garbled circuits between two GCP
// servers; no comparable Go stack exists (see DESIGN.md, substitution table),
// so this package reproduces the two properties the paper's results actually
// depend on:
//
//  1. Leakage structure. Every value a server could observe during a real
//     protocol execution — incoming shares, exhaustively padded batch sizes,
//     DP-resized fetch counts, flush events — is an Event the party hashes
//     into its running transcript digest (and a test's recorder lists, see
//     Party.Record). The security argument (Theorem 7/8/14) says this view
//     must be simulatable from DP outputs and public parameters alone. The
//     simulator is the engine itself: the leakage tests in internal/core
//     rerun a recorded run on empty private inputs with its DP releases
//     programmed in, and StructurallyEqual requires the two transcripts to
//     agree on everything but the uniform share values.
//
//  2. Cost shape. Garbled-circuit cost is gate count times a throughput
//     constant; oblivious sorts are O(n log^2 n) compare-exchanges and
//     oblivious scans are O(n) per-tuple circuits. The Meter holds gates per
//     phase and converts them into simulated seconds with a rate calibrated
//     to EMP-class throughput, so the relative factors the paper reports (NM
//     vs. EP vs. DP protocols) emerge from the same asymptotics. Which
//     primitives a phase runs, at which sizes, is internal/core's price list;
//     bytes are measured by the wire tally, not modelled.
package mpc

import (
	"math/bits"

	"incshrink/internal/snapshot"
)

// CostModel holds the gate-level constants that price secure operations, each
// an integer number of AND gates (so a phase's total, far below 2^53, is exact
// in any order), and the throughput that turns gates into simulated seconds.
// All sizes are in bits of secret-shared payload per tuple.
type CostModel struct {
	// ANDGatesPerCompareExchangeBit is the number of AND gates needed per
	// payload bit for one compare-exchange: a comparator (~1 AND/bit) plus a
	// conditional swap (two muxes, ~2 AND/bit).
	ANDGatesPerCompareExchangeBit float64
	// ANDGatesPerScanBit is the per-bit cost of evaluating a predicate and
	// conditionally copying a tuple during an oblivious linear scan.
	ANDGatesPerScanBit float64
	// ANDGatesPerLaplace is the circuit size of one joint Laplace draw
	// (fixed-point log via table lookup plus arithmetic).
	ANDGatesPerLaplace float64
	// GatesPerSecond is the end-to-end garbling+evaluation+network
	// throughput. EMP semi-honest 2PC over LAN evaluates on the order of
	// 10^7 AND gates per second; the paper's absolute times correspond to a
	// somewhat slower effective rate once OT and I/O are included.
	GatesPerSecond float64
}

// DefaultCostModel returns constants calibrated so that the shape of the
// paper's Table 2 (relative improvements between NM, EP and the DP
// protocols) is reproduced. Absolute times are simulated seconds, not
// wall-clock measurements.
func DefaultCostModel() CostModel {
	return CostModel{
		ANDGatesPerCompareExchangeBit: 3,
		ANDGatesPerScanBit:            2,
		ANDGatesPerLaplace:            20000,
		GatesPerSecond:                8e6,
	}
}

// SortCompareExchanges returns the number of compare-exchange operations a
// Batcher odd-even merge sort is charged for n elements: the size of the
// network on the next power of two 2^k >= n, (k^2 - k + 4) * 2^(k-2) - 1,
// which is Theta(n log^2 n). For n <= 1 it is zero.
func SortCompareExchanges(n int) int {
	if n <= 1 {
		return 0
	}
	k := bits.Len(uint(n - 1))
	return (k*k-k+4)<<k>>2 - 1
}

// MergeCompareExchanges returns the compare-exchanges merging sorted runs of
// m and f elements is charged: the last phase of Batcher's network on 2^k
// wires, 2^(k-1) >= both runs, (k-1) * 2^(k-1) + 1 — zero for an empty run.
func MergeCompareExchanges(m, f int) int {
	if m <= 0 || f <= 0 {
		return 0
	}
	lp := bits.Len(uint(max(m, f) - 1))
	return lp<<lp + 1
}

// CompactMoves returns the controlled moves an order-preserving compaction of
// n slots is charged, at scan rate: ceil(log2 n) routing levels of n moves.
func CompactMoves(n int) int { return n * bits.Len(uint(max(n, 1)-1)) }

// Op identifies the protocol phase a cost is charged to; Table 2 reports
// Transform, Shrink and query (QET) times separately.
type Op int

// Protocol phases for cost attribution.
const (
	OpTransform Op = iota
	OpShrink
	OpQuery
	OpOther
	numOps
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpTransform:
		return "Transform"
	case OpShrink:
		return "Shrink"
	case OpQuery:
		return "Query"
	default:
		return "Other"
	}
}

// Meter accumulates gate charges, and their simulated seconds, by phase. Like
// Runtime, a Meter belongs to a single engine and is not safe for concurrent
// use; concurrent simulation cells each meter their own runtime.
type Meter struct {
	model CostModel
	gates [numOps]float64
}

// NewMeter creates a meter over the given cost model.
func NewMeter(model CostModel) *Meter {
	return &Meter{model: model}
}

// Model returns the meter's cost model.
func (m *Meter) Model() CostModel { return m.model }

// ChargeGates adds raw AND-gate cost to a phase.
func (m *Meter) ChargeGates(op Op, gates float64) {
	if op < 0 || op >= numOps {
		op = OpOther
	}
	m.gates[op] += gates
}

// ChargeSort charges one oblivious sort of n tuples of tupleBits payload.
func (m *Meter) ChargeSort(op Op, n, tupleBits int) {
	ce := SortCompareExchanges(n)
	m.ChargeGates(op, float64(ce)*float64(tupleBits)*m.model.ANDGatesPerCompareExchangeBit)
}

// ChargeScan charges one oblivious linear scan over n tuples.
func (m *Meter) ChargeScan(op Op, n, tupleBits int) {
	m.ChargeGates(op, float64(n)*float64(tupleBits)*m.model.ANDGatesPerScanBit)
}

// ChargeMerge charges one oblivious merge of sorted runs of runM and runF tuples.
func (m *Meter) ChargeMerge(op Op, runM, runF, tupleBits int) {
	ce := MergeCompareExchanges(runM, runF)
	m.ChargeGates(op, float64(ce)*float64(tupleBits)*m.model.ANDGatesPerCompareExchangeBit)
}

// ChargeLaplace charges one joint Laplace noise generation.
func (m *Meter) ChargeLaplace(op Op) {
	m.ChargeGates(op, m.model.ANDGatesPerLaplace)
}

// Gates returns the accumulated AND gates for a phase.
func (m *Meter) Gates(op Op) float64 { return m.gates[op] }

// Seconds converts a phase's gates to simulated seconds.
func (m *Meter) Seconds(op Op) float64 { return m.gates[op] / m.model.GatesPerSecond }

// encodeState writes the per-phase gate totals, indexed by Op. The cost
// model is a construction parameter, not state.
func (m *Meter) encodeState(e *snapshot.Encoder) {
	e.U32(uint32(numOps))
	for _, g := range m.gates {
		e.F64(g)
	}
}

// decodeState reads totals written by encodeState; a count of phases other
// than this build's, or a short stream, loads nothing.
func (m *Meter) decodeState(d *snapshot.Decoder) {
	if n := d.Len(); d.Err() == nil && n != int(numOps) {
		d.Corrupt("meter state carries %d phases, want %d", n, numOps)
	}
	var gates [numOps]float64
	for i := range gates {
		gates[i] = d.F64()
	}
	if d.Err() == nil {
		m.gates = gates
	}
}
