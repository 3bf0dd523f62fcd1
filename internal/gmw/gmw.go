// Package gmw implements an executable two-party semi-honest secure
// computation layer in the GMW style: boolean circuits evaluated over
// XOR-shared bits, with AND gates of up to three inputs realized from
// correlated-randomness tuples handed out by an offline dealer (the standard
// preprocessing model; EMP-Toolkit's semi-honest backend plays the same role
// for the paper's prototype, and the three-input gate is ABY2.0's multi-input
// AND, Patra et al., USENIX Security 2021).
//
// The package serves two purposes in this reproduction:
//
//  1. It demonstrates the protocols IncShrink compiles — counter updates,
//     threshold comparisons, mux-based conditional swaps — actually running
//     over shares between two parties joined by a wire.Conn (Eval), with the
//     online transcript (the masked openings δx = x XOR a, δy = y XOR b,
//     δz = z XOR c of every gate) visible for inspection.
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

// Tuple is the correlated randomness of one three-input AND gate: shared
// uniform bits a, b and c together with shared products ab, ac, bc and abc.
// Each AND gate, two-input or three-input, consumes exactly one tuple.
type Tuple struct {
	A, B, C, AB, AC, BC, ABC Bit
}

// Dealer produces correlated randomness in the offline phase. The dealer is
// a standard abstraction for semi-honest preprocessing (instantiable with
// OT extension in a deployment); it never sees the parties' inputs.
type Dealer struct {
	rng *rand.Rand
}

// NewDealer creates a dealer with its own randomness.
func NewDealer(seed int64) *Dealer {
	//lint:allow rngdraw dealer randomness is offline-phase preprocessing, one Uint64 per tuple, never snapshot-covered; wrapping would not count those draws
	return &Dealer{rng: rand.New(rand.NewSource(seed))}
}

// shareBit splits v against a mask bit: party 0 holds the mask, party 1
// holds v XOR mask.
func shareBit(v, mask bool) Bit {
	return Bit{S0: mask, S1: v != mask}
}

// Tuple draws one fresh tuple from a single 64-bit draw: bits 0..2 are a, b
// and c, bits 3..9 the masks of the seven shares.
func (d *Dealer) Tuple() Tuple {
	r := d.rng.Uint64()
	bit := func(i uint) bool { return r>>i&1 == 1 }
	a, b, c := bit(0), bit(1), bit(2)
	return Tuple{
		A: shareBit(a, bit(3)), B: shareBit(b, bit(4)), C: shareBit(c, bit(5)),
		AB: shareBit(a && b, bit(6)), AC: shareBit(a && c, bit(7)), BC: shareBit(b && c, bit(8)),
		ABC: shareBit(a && b && c, bit(9)),
	}
}

// halves packs each party's shares of t into a byte (bits 0..6 = a, b, c,
// ab, ac, bc, abc) — the unit of both the FrameTriples payload and the
// evaluator's tuple pool.
func (t Tuple) halves() (h0, h1 byte) {
	for i, s := range [...]Bit{t.A, t.B, t.C, t.AB, t.AC, t.BC, t.ABC} {
		if s.S0 {
			h0 |= 1 << uint(i)
		}
		if s.S1 {
			h1 |= 1 << uint(i)
		}
	}
	return h0, h1
}
