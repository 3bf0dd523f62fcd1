package mpc

import "incshrink/internal/wire"

// Wire-shape constants of the online runtime protocol. Every joint primitive
// (joint random word, in-protocol re-share, in-protocol recovery) is one
// symmetric word exchange: each party ships one FrameWord frame (4-byte
// payload) and receives the peer's, costing each party one round and
// 2*WordFrameBytes logical frame bytes. Both the loopback and the TCP
// transports count exactly these logical bytes, which is what makes the
// tallies — and the transcripts that embed them — transport-independent.
const (
	// WordFrameBytes is the framed size of one runtime share word.
	WordFrameBytes = wire.FrameOverhead + 4
	// ExchangeBytes is the per-party byte cost of one word exchange.
	ExchangeBytes = 2 * WordFrameBytes
	// ExchangeRounds is the per-party round cost of one word exchange.
	ExchangeRounds = 1
)

// PredictedWire is the modeled wire cost of an operation: what the CostModel
// expects the transport counters to report. The obs layer compares these
// against measured conn tallies per op family.
type PredictedWire struct {
	Rounds uint64
	Bytes  uint64
}

// PredictExchanges prices n runtime word exchanges.
func PredictExchanges(n int) PredictedWire {
	return PredictedWire{Rounds: uint64(n) * ExchangeRounds, Bytes: uint64(n) * ExchangeBytes}
}

// PredictOpenRounds prices the online GMW rounds of a circuit (internal/gmw
// Eval) from its round shape — the lane count k of each AND round, as gmw
// declares it. A round is priced by its lane count, not per gate: the 2k
// masked-opening share bits d = x^a, e = y^b go out packed in one
// ⌈2k/8⌉-byte frame and the peer's come back in another.
func PredictOpenRounds(lanes []int) PredictedWire {
	w := PredictedWire{Rounds: uint64(len(lanes))}
	for _, k := range lanes {
		w.Bytes += 2 * uint64(wire.FrameOverhead+(2*k+7)/8)
	}
	return w
}
