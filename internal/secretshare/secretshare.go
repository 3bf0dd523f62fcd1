// Package secretshare implements the XOR-based secret-sharing schemes used
// by IncShrink's server-aided MPC model.
//
// The paper (Section 3) uses (2,2) XOR sharing over the ring Z_{2^32}: a
// secret x splits into x1 chosen uniformly at random and x2 = x XOR x1.
// Either share alone is uniformly distributed and carries no information
// about x; XOR of both recovers it. (The in-protocol re-sharing of Appendix
// A.2, whose randomness the participants contribute jointly, lives in
// internal/mpc.)
package secretshare

// Word is the ring element type. The paper fixes the ring to Z_{2^32}; XOR
// arithmetic on uint32 implements it exactly.
type Word = uint32

// Shares2 is a (2,2) XOR sharing of a single ring element. S0 is held by
// server 0 and S1 by server 1.
type Shares2 struct {
	S0, S1 Word
}

// RNG is the randomness source interface used throughout the package. It is
// satisfied by *dp.Stream; tests substitute deterministic sources.
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
