package dp

import (
	"math"
	"slices"
	"testing"
)

// releasePMF is the exact distribution of the integer release the Shrink
// protocols compute from a count c: int(math.Round(float64(c) +
// LaplaceFromWords(scale, zr, zs))) over every magnitude word zr and both
// signs. The sign is zs's top bit, so each sign has probability 1/2, and the
// map counts (zr, sign) pairs: an output's probability is its count / 2³³.
// For a fixed sign the release is monotone in zr, so each output is one run
// of zr, and a binary search finds where the run ends: ≈ 23·scale runs per
// sign, 32 evaluations each, instead of 2³² evaluations.
func releasePMF(c int, scale float64) map[int]uint64 {
	pmf := map[int]uint64{}
	for _, zs := range []uint32{0, 1 << 31} {
		release := func(zr uint64) int {
			return int(math.Round(float64(c) + LaplaceFromWords(scale, uint32(zr), zs)))
		}
		for lo := uint64(0); lo < 1<<32; {
			v := release(lo)
			in, out := lo, uint64(1)<<32 // release(in) == v; out is past the run
			for out-in > 1 {
				if mid := (in + out) / 2; release(mid) == v {
					in = mid
				} else {
					out = mid
				}
			}
			pmf[v] += out - lo
			lo = out
		}
	}
	return pmf
}

// privacyLoss compares the release distributions p and q of two neighbouring
// counts. It returns the outputs either can give, the outputs only one can
// give (their loss is infinite), the largest finite |ln(p/q)|, and the
// smallest δ for which the pair is (ε, δ)-indistinguishable: the larger, over
// both directions, of Σ_o max(0, p(o) − e^ε·q(o)).
func privacyLoss(p, q map[int]uint64, eps float64) (outputs, oneSided int, maxLoss, delta float64) {
	const total = 1 << 33
	var union []int
	for o := range p {
		union = append(union, o)
	}
	for o := range q {
		if p[o] == 0 {
			union = append(union, o)
		}
	}
	slices.Sort(union) // the δ sums below must not depend on map order
	var pq, qp float64
	for _, o := range union {
		po, qo := float64(p[o])/total, float64(q[o])/total
		if po == 0 || qo == 0 {
			oneSided++
		} else {
			maxLoss = max(maxLoss, math.Abs(math.Log(po/qo)))
		}
		pq += max(0, po-math.Exp(eps)*qo)
		qp += max(0, qo-math.Exp(eps)*po)
	}
	return len(union), oneSided, maxLoss, max(pq, qp)
}

// TestReleasePrivacyLossExact pins the (ε, δ) that today's sampler meets per
// release, computed exactly rather than sampled. The magnitude is a 32-bit
// fixed-point inversion, so the noise is bounded by scale·ln 2³³ and its tail
// buckets are coarse: a count of 0 and a count of b (neighbours that differ
// by the sensitivity b) can each give outputs the other never gives, and the
// largest finite loss exceeds ε. The δ that buys back is small but not zero.
// Every figure here moves if the scale b/ε, the word width or the rounding
// changes.
func TestReleasePrivacyLossExact(t *testing.T) {
	cases := []struct {
		b, eps            float64
		outputs, oneSided int
		maxLoss, delta    float64
	}{
		// The default deployment's sDPTimer release: loss ln 6, not 1.5.
		{b: 10, eps: 1.5, outputs: 293, oneSided: 20, maxLoss: math.Log(6), delta: 1.48728e-8},
		{b: 20, eps: 0.75, outputs: 1089, oneSided: 56, maxLoss: math.Log(4), delta: 2.45751e-8},
		{b: 10, eps: 5, outputs: 101, oneSided: 20, maxLoss: math.Log(245), delta: 1.19979e-7},
	}
	for _, c := range cases {
		scale := c.b / c.eps
		outputs, oneSided, maxLoss, delta := privacyLoss(releasePMF(0, scale), releasePMF(int(c.b), scale), c.eps)
		if outputs != c.outputs || oneSided != c.oneSided {
			t.Errorf("b %v, ε %v: %d outputs, %d of them one-sided; want %d, %d",
				c.b, c.eps, outputs, oneSided, c.outputs, c.oneSided)
		}
		if math.Abs(maxLoss-c.maxLoss) > 1e-9 {
			t.Errorf("b %v, ε %v: largest finite loss %.6f, want %.6f", c.b, c.eps, maxLoss, c.maxLoss)
		}
		if math.Abs(delta-c.delta) > 1e-5*c.delta {
			t.Errorf("b %v, ε %v: δ(ε) %.6g, want %.6g", c.b, c.eps, delta, c.delta)
		}
	}
}
