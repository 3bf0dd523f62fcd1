package mpc

import "incshrink/internal/wire"

// wordBytes is the payload size of one runtime share word.
const wordBytes = 4

// PredictedWire is the modeled wire cost of an operation: what the CostModel
// expects the transport counters to report. The obs layer compares these
// against measured conn tallies per op family.
type PredictedWire struct {
	Rounds uint64
	Bytes  uint64
}

// exchangeBytes is the per-party frame bytes of runtime rounds carrying
// words words between them: each round ships one FrameWord frame of
// 4·w payload bytes each way.
func exchangeBytes(rounds, words uint64) uint64 {
	return 2 * (rounds*wire.FrameOverhead + words*wordBytes)
}

// PredictExchanges prices runtime rounds by word count, one argument per
// round: a round of w words costs each party one round and 2·(5 + 4·w)
// logical frame bytes. Both the loopback and the TCP transports count
// exactly these bytes, which is what makes the tallies — and the
// transcripts that embed them — transport-independent.
func PredictExchanges(words ...int) PredictedWire {
	var n uint64
	for _, w := range words {
		n += uint64(w)
	}
	rounds := uint64(len(words))
	return PredictedWire{Rounds: rounds, Bytes: exchangeBytes(rounds, n)}
}

// PredictOpenRounds prices the online GMW rounds of a circuit (internal/gmw
// Eval) from its round shape — the lane count k of each AND round, as gmw
// declares it. A round is priced by its lane count, not per gate: the 4k
// masked-opening share bits δx = x^a, δy = y^b, δz = z^c, δw = w^d of its
// k four-input gates go out packed in one ⌈4k/8⌉-byte frame and the peer's
// come back in another.
func PredictOpenRounds(lanes []int) PredictedWire {
	w := PredictedWire{Rounds: uint64(len(lanes))}
	for _, k := range lanes {
		w.Bytes += 2 * uint64(wire.FrameOverhead+(4*k+7)/8)
	}
	return w
}
