// Package secretshare implements the XOR-based secret-sharing schemes used
// by IncShrink's server-aided MPC model.
//
// The paper (Section 3) uses (2,2) XOR sharing over the ring Z_{2^32}: a
// secret x splits into x1 chosen uniformly at random and x2 = x XOR x1.
// Either share alone is uniformly distributed and carries no information
// about x; XOR of both recovers it. The package also provides the
// in-protocol re-sharing procedure of Appendix A.2, where the randomness is
// contributed jointly by the participants so that no single party can
// predict or bias the fresh shares.
package secretshare

import "math/rand"

// Word is the ring element type. The paper fixes the ring to Z_{2^32}; XOR
// arithmetic on uint32 implements it exactly.
type Word = uint32

// Shares2 is a (2,2) XOR sharing of a single ring element. S0 is held by
// server 0 and S1 by server 1.
type Shares2 struct {
	S0, S1 Word
}

// RNG is the randomness source interface used throughout the package. It is
// satisfied by *math/rand.Rand; tests substitute deterministic sources.
type RNG interface {
	Uint32() uint32
}

// Share splits x into a fresh (2,2) XOR sharing using randomness from rng.
func Share(x Word, rng RNG) Shares2 {
	r := rng.Uint32()
	return Shares2{S0: r, S1: x ^ r}
}

// Recover reconstructs the secret from both shares.
func Recover(s Shares2) Word {
	return s.S0 ^ s.S1
}

// Zero returns a sharing of zero (used to initialize the cardinality counter
// in Transform, Alg. 1 line 2: (x, x XOR 0)).
func Zero(rng RNG) Shares2 {
	return Share(0, rng)
}

// Add returns a sharing of a XOR b computed locally on each share. XOR
// sharings are linearly homomorphic under XOR: each server combines its own
// shares without interaction.
func Add(a, b Shares2) Shares2 {
	return Shares2{S0: a.S0 ^ b.S0, S1: a.S1 ^ b.S1}
}

// ReshareInside implements the in-MPC re-sharing of Appendix A.2 for the
// two-party case: each server contributes a uniformly random value z_i as
// protocol input; the protocol internally computes shares
// (c0, c1) = (z0 XOR z1, c XOR z0 XOR z1). Server 0's knowledge of c is then
// masked by z1 (which it does not know) and symmetrically for server 1. The
// caller supplies the two contributed values; the secret never leaves the
// protocol in the clear.
func ReshareInside(secret Word, z0, z1 Word) Shares2 {
	mask := z0 ^ z1
	return Shares2{S0: mask, S1: secret ^ mask}
}

// NewRand returns a deterministic RNG seeded with seed. Every randomized
// component in this repository threads its RNG explicitly so that whole
// experiments replay bit-for-bit.
func NewRand(seed int64) RNG {
	//lint:allow rngdraw seed-to-RNG factory; callers that persist stream position wrap the result in dp.NewCountingRNG at the use site
	return rand.New(rand.NewSource(seed))
}
