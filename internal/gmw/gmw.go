// Package gmw implements an executable two-party semi-honest secure
// computation layer in the GMW style: boolean circuits evaluated over
// XOR-shared bits, with AND gates realized from Beaver multiplication
// triples handed out by an offline dealer (the standard preprocessing
// model; EMP-Toolkit's semi-honest backend plays the same role for the
// paper's prototype).
//
// The package serves two purposes in this reproduction:
//
//  1. It demonstrates the protocols IncShrink compiles — counter updates,
//     threshold comparisons, mux-based conditional swaps — actually running
//     over shares between two parties joined by a wire.Conn (Eval), with the
//     online transcript (the masked openings d = x XOR a, e = y XOR b)
//     visible for inspection.
//  2. It validates the cost simulator: the AND-gate counts of the word-level
//     circuits here (adders, comparators, muxes) are what
//     internal/mpc.CostModel charges per compare-exchange and per scan bit;
//     the cross-check test keeps the two in sync.
//
// Everything is computed over the two-party XOR sharing of
// internal/secretshare; a shared bit is one bit per party whose XOR is the
// cleartext.
package gmw

import "math/rand"

// Bit is a secret bit, XOR-shared across the two parties.
type Bit struct {
	S0, S1 bool
}

// Open reconstructs the cleartext bit.
func (b Bit) Open() bool { return b.S0 != b.S1 }

// Triple is one Beaver multiplication triple: shared bits a, b and c with
// c = a AND b. Each AND gate consumes exactly one triple.
type Triple struct {
	A, B, C Bit
}

// Dealer produces correlated randomness in the offline phase. The dealer is
// a standard abstraction for semi-honest preprocessing (instantiable with
// OT extension in a deployment); it never sees the parties' inputs.
type Dealer struct {
	rng *rand.Rand
}

// NewDealer creates a dealer with its own randomness.
func NewDealer(seed int64) *Dealer {
	//lint:allow rngdraw dealer randomness is offline-phase preprocessing consumed via Intn, never snapshot-covered; wrapping would not count those draws
	return &Dealer{rng: rand.New(rand.NewSource(seed))}
}

func (d *Dealer) shareBit(v bool) Bit {
	r := d.rng.Intn(2) == 1
	return Bit{S0: r, S1: v != r}
}

// Triple draws one fresh multiplication triple.
func (d *Dealer) Triple() Triple {
	a := d.rng.Intn(2) == 1
	b := d.rng.Intn(2) == 1
	return Triple{A: d.shareBit(a), B: d.shareBit(b), C: d.shareBit(a && b)}
}

// halves packs each party's shares of t into a byte (bits 0..2 = a, b, c) —
// the unit of both the FrameTriples payload and the evaluator's triple pool.
func (t Triple) halves() (h0, h1 byte) {
	bit := func(b bool, shift uint) byte {
		if b {
			return 1 << shift
		}
		return 0
	}
	return bit(t.A.S0, 0) | bit(t.B.S0, 1) | bit(t.C.S0, 2),
		bit(t.A.S1, 0) | bit(t.B.S1, 1) | bit(t.C.S1, 2)
}
