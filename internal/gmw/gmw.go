// Package gmw implements an executable two-party semi-honest secure
// computation layer in the GMW style: boolean circuits evaluated over
// XOR-shared bits, with AND gates of up to four inputs realized from
// correlated-randomness tuples handed out by an offline dealer (the standard
// preprocessing model; EMP-Toolkit's semi-honest backend plays the same role
// for the paper's prototype, and the four-input gate is ABY2.0's multi-input
// AND, Patra et al., USENIX Security 2021).
//
// The package serves two purposes in this reproduction:
//
//  1. It demonstrates the protocols IncShrink compiles — counter updates,
//     threshold comparisons, mux-based conditional swaps — actually running
//     over shares between two parties joined by a wire.Conn (Eval), with the
//     online transcript (the masked openings δx = x XOR a, δy = y XOR b,
//     δz = z XOR c, δw = w XOR d of every gate) visible for inspection.
//  2. It validates the cost simulator: the AND-gate counts of the word-level
//     circuits here (adders, comparators, muxes) are what
//     internal/mpc.CostModel charges per compare-exchange and per scan bit;
//     the cross-check test keeps the two in sync.
//
// Everything is computed over the two-party XOR sharing of
// internal/secretshare; a shared bit is one bit per party whose XOR is the
// cleartext.
package gmw

import "incshrink/internal/dp"

// Bit is a secret bit, XOR-shared across the two parties.
type Bit struct {
	S0, S1 bool
}

// Open reconstructs the cleartext bit.
func (b Bit) Open() bool { return b.S0 != b.S1 }

// TupleBytes is the size of one party's share of a tuple on the wire: a
// FrameTriples payload carries each gate's share as a little-endian uint16.
const TupleBytes = 2

// Tuple is the correlated randomness of one four-input AND gate: shared
// uniform bits a, b, c and d together with shares of the product over every
// non-empty subset of them, packed as each party's fifteen share bits. Bit
// s-1 of S0 and of S1 are the two shares of the product over the subset s
// of {a, b, c, d}, bit 0 of s standing for a, bit 1 for b, bit 2 for c and
// bit 3 for d: bit 0 is a, bit 2 is ab, bit 14 is abcd. S0 and S1 are the
// units of the FrameTriples payload. Each AND gate, of two, three or four
// inputs, consumes exactly one tuple.
type Tuple struct {
	S0, S1 uint16
}

// bit returns the shared product over subset s, 1 <= s <= 15.
func (t Tuple) bit(s uint) Bit {
	return Bit{S0: t.S0>>(s-1)&1 == 1, S1: t.S1>>(s-1)&1 == 1}
}

// products[v] has bit s-1 set when the 4-bit value v (a, b, c, d in bits 0..3)
// holds every member of subset s, that is when the product over s is 1.
var products = func() (p [16]uint16) {
	for v := range p {
		for s := 1; s < 16; s++ {
			if v&s == s {
				p[v] |= 1 << (s - 1)
			}
		}
	}
	return p
}()

// Dealer produces correlated randomness in the offline phase. The dealer is
// a standard abstraction for semi-honest preprocessing (instantiable with
// OT extension in a deployment); it never sees the parties' inputs.
type Dealer struct {
	rng *dp.Stream
}

// NewDealer creates a dealer with its own randomness, the dp.Stream of seed.
func NewDealer(seed int64) *Dealer {
	return &Dealer{rng: dp.NewStream(seed)}
}

// Tuple draws one fresh tuple from a single 64-bit draw: bits 0..3 are a,
// b, c and d, bits 4..18 party 0's fifteen shares, the masks of the
// products party 1 holds.
func (d *Dealer) Tuple() Tuple {
	r := d.rng.Uint64()
	s0 := uint16(r>>4) & 0x7FFF
	return Tuple{S0: s0, S1: s0 ^ products[r&15]}
}
