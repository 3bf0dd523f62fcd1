package core

import (
	"incshrink/internal/mpc"
	"incshrink/internal/workload"
)

// The price list: every data-plane charge to the MPC cost meter, made from
// the public sizes core hands the operator, in the order the operators run.
// internal/oblivious and internal/securearray execute and never price; the
// control plane's Laplace draw is priced by mpc.Round.Laplace. Each charge is
// an integer gate count and a phase's total stays below 2^53, so the sums are
// exact in any order.

const (
	tupleBits = 64 * workload.JoinArity         // a view entry: two stream rows
	carryBits = 64 * (workload.StreamArity + 1) // a carried record and its (key, tag) column
)

// priceJoin prices the truncated join over carried keys, already in join
// order, and fresh new ones: the sort of the new keys, their merge into the
// carried, and the emit scan of max(omega, 1) view slots per key. NM's
// modelled query is this join over the whole history, nothing carried.
func priceJoin(m *mpc.Meter, op mpc.Op, carried, fresh, omega int) {
	m.ChargeSort(op, fresh, carryBits)
	m.ChargeMerge(op, carried, fresh, carryBits)
	m.ChargeScan(op, max(omega, 1)*(carried+fresh), tupleBits)
}

// priceTransform prices a Transform over n keys, fresh of them new: the join,
// the carry's retirement (an order-preserving compaction of the n keys:
// CompactMoves at scan rate) and the delta compaction of `compacted` slots
// (two linear passes; none when the delta is not compacted).
func priceTransform(m *mpc.Meter, n, fresh, omega, compacted int) {
	priceJoin(m, mpc.OpTransform, n-fresh, fresh, omega)
	m.ChargeScan(mpc.OpTransform, mpc.CompactMoves(n), carryBits)
	m.ChargeScan(mpc.OpTransform, 2*compacted, tupleBits)
}

// priceRead prices a cache read, Shrink's or the flush, as a full sort of the
// cache's slots, whatever its runs let the merge skip and however few slots
// it keeps: the read merges the runs' first K slots only, K = fetch + spill
// + keep (ROADMAP item 4 charges what executes).
func priceRead(m *mpc.Meter, slots int) { m.ChargeSort(mpc.OpShrink, slots, tupleBits) }

// priceQuery prices a query as a scan of every view slot at full width.
func priceQuery(m *mpc.Meter, slots int) { m.ChargeScan(mpc.OpQuery, slots, tupleBits) }
