// Package dp implements the differential-privacy machinery used by
// IncShrink's Shrink protocols: the joint fixed-point Laplace sampler of
// Algorithm 2 (lines 4-6), the tail bounds of Theorems 4 and 6 as
// computable predicates, and the protocol's randomness itself. Stream is
// the one seeded stream every protocol layer draws from — the parties and
// the GMW dealer — and the one place that knows
// which generator backs it and how its position is checkpointed and
// resumed; no other snapshot-covered package imports math/rand (the rngdraw
// analyzer). FreshSeed gives a deployment that names no seed its own. The
// mechanisms themselves — sDPTimer's noisy release and sDPANT's
// numeric-above-noisy-threshold — run inside the MPC runtime (core.Timer,
// core.ANT), not here.
package dp

import (
	"errors"
	"fmt"
	"math"
)

// RNG is the randomness interface: one uniform 32-bit word per call. In
// production each word is the XOR of per-server contributions (joint noise,
// Alg. 2:4-6); tests substitute deterministic streams.
type RNG interface {
	Uint32() uint32
}

// FixedPoint converts a 32-bit word into a fixed-point value r in the open
// interval (0,1), exactly as sDPTimer does before computing ln r. The all
// zero word maps to the smallest representable positive value so the
// logarithm stays finite (the paper's fixed_point(z) with r in (0,1)).
func FixedPoint(z uint32) float64 {
	const denom = float64(1 << 32)
	return (float64(z) + 0.5) / denom
}

// SignFromMSB returns -1 or +1 from the most significant bit of z, the extra
// bit of randomness sDPTimer uses to pick the Laplace sign (Alg. 2:6).
func SignFromMSB(z uint32) float64 {
	if z&0x80000000 != 0 {
		return -1
	}
	return 1
}

// LaplaceFromWords computes a Laplace(scale) sample from two uniform 32-bit
// words using the inversion method of Algorithm 2: the magnitude word zr
// becomes a fixed-point seed r in (0,1), the sample is scale * ln(r) with the
// sign taken from the MSB of zs. Because |ln r| is the magnitude of an
// exponential variate, sign*scale*ln r ~ Laplace(0, scale) up to the 2^-32
// discretization of r.
func LaplaceFromWords(scale float64, zr, zs uint32) float64 {
	r := FixedPoint(zr)
	return scale * math.Log(r) * -SignFromMSB(zs)
}

// Laplace draws a Laplace(0, scale) sample using two words from rng. It is
// the single noise primitive every Shrink protocol uses; the joint-noise
// property comes from where the words originate, not from the math here.
func Laplace(scale float64, rng RNG) float64 {
	return LaplaceFromWords(scale, rng.Uint32(), rng.Uint32())
}

var (
	errBadEpsilon     = errors.New("dp: epsilon must be positive and finite")
	errBadSensitivity = errors.New("dp: sensitivity must be positive and finite")
)

func validate(sensitivity, epsilon float64) error {
	if !(epsilon > 0) || math.IsInf(epsilon, 0) {
		return fmt.Errorf("%w (got %v)", errBadEpsilon, epsilon)
	}
	if !(sensitivity > 0) || math.IsInf(sensitivity, 0) {
		return fmt.Errorf("%w (got %v)", errBadSensitivity, sensitivity)
	}
	return nil
}

// DeferredDataBound returns the alpha of Theorem 4: after k updates of
// sDPTimer with contribution bound b and privacy parameter epsilon, the
// number of deferred (unsynchronized real) tuples exceeds
// alpha = (2b/eps) * sqrt(k * log(1/beta)) with probability at most beta,
// provided k >= 4 log(1/beta).
func DeferredDataBound(b float64, epsilon float64, k int, beta float64) (float64, error) {
	if err := validate(b, epsilon); err != nil {
		return 0, err
	}
	if beta <= 0 || beta >= 1 {
		return 0, fmt.Errorf("dp: beta must lie in (0,1), got %v", beta)
	}
	return 2 * b / epsilon * math.Sqrt(float64(k)*math.Log(1/beta)), nil
}

// ANTDeferredBound returns the Theorem 6 bound for sDPANT: the number of
// deferred tuples at time t is O(16 b log(t) / eps). The constant the proof
// derives is 16 b (log t + log(2/beta)) / eps; we expose the full expression.
func ANTDeferredBound(b, epsilon float64, t int, beta float64) (float64, error) {
	if err := validate(b, epsilon); err != nil {
		return 0, err
	}
	if beta <= 0 || beta >= 1 {
		return 0, fmt.Errorf("dp: beta must lie in (0,1), got %v", beta)
	}
	if t < 2 {
		t = 2
	}
	return 16 * b * (math.Log(float64(t)) + math.Log(2/beta)) / epsilon, nil
}
