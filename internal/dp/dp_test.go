package dp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func newRNG(seed int64) RNG { return rand.New(rand.NewSource(seed)) }

func TestFixedPointInOpenUnitInterval(t *testing.T) {
	cases := []uint32{0, 1, 1 << 31, math.MaxUint32}
	for _, z := range cases {
		r := FixedPoint(z)
		if !(r > 0 && r < 1) {
			t.Errorf("FixedPoint(%d) = %v not in (0,1)", z, r)
		}
	}
	f := func(z uint32) bool { r := FixedPoint(z); return r > 0 && r < 1 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFixedPointMonotone(t *testing.T) {
	if !(FixedPoint(0) < FixedPoint(1) && FixedPoint(1) < FixedPoint(math.MaxUint32)) {
		t.Fatal("FixedPoint not monotone")
	}
}

func TestSignFromMSB(t *testing.T) {
	if SignFromMSB(0) != 1 {
		t.Error("MSB 0 should give +1")
	}
	if SignFromMSB(0x80000000) != -1 {
		t.Error("MSB 1 should give -1")
	}
	if SignFromMSB(0x7FFFFFFF) != 1 {
		t.Error("0x7FFFFFFF should give +1")
	}
}

func TestLaplaceFromWordsFinite(t *testing.T) {
	f := func(zr, zs uint32) bool {
		v := LaplaceFromWords(1.0, zr, zs)
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLaplaceDistribution estimates the empirical median absolute deviation
// and sign balance of the sampler. For Laplace(0, s): median |X| = s*ln 2,
// P(X>0) = 1/2.
func TestLaplaceDistribution(t *testing.T) {
	rng := newRNG(42)
	const n = 200000
	scale := 3.0
	abs := make([]float64, n)
	pos := 0
	var sum float64
	for i := 0; i < n; i++ {
		v := Laplace(scale, rng)
		abs[i] = math.Abs(v)
		if v > 0 {
			pos++
		}
		sum += v
	}
	sort.Float64s(abs)
	medAbs := abs[n/2]
	wantMed := scale * math.Ln2
	if math.Abs(medAbs-wantMed) > 0.05*wantMed {
		t.Errorf("median |X| = %v, want about %v", medAbs, wantMed)
	}
	if frac := float64(pos) / n; frac < 0.49 || frac > 0.51 {
		t.Errorf("sign balance %v, want about 0.5", frac)
	}
	if mean := sum / n; math.Abs(mean) > 0.05*scale {
		t.Errorf("mean %v, want about 0", mean)
	}
}

// TestLaplaceVariance: Var(Laplace(0,s)) = 2 s^2.
func TestLaplaceVariance(t *testing.T) {
	rng := newRNG(43)
	const n = 200000
	scale := 2.0
	var sumSq float64
	for i := 0; i < n; i++ {
		v := Laplace(scale, rng)
		sumSq += v * v
	}
	got := sumSq / n
	want := 2 * scale * scale
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("variance %v, want about %v", got, want)
	}
}

// TestBoundsRejectBadParameters: the theorem-bound helpers refuse a
// non-positive, infinite or NaN epsilon and contribution bound.
func TestBoundsRejectBadParameters(t *testing.T) {
	for _, c := range [][2]float64{{1, 0}, {0, 1}, {1, math.Inf(1)}, {math.NaN(), 1}} {
		if _, err := DeferredDataBound(c[0], c[1], 10, 0.05); err == nil {
			t.Errorf("b=%v epsilon=%v should error", c[0], c[1])
		}
	}
}

func TestDeferredDataBound(t *testing.T) {
	// Theorem 4 with b=10, eps=1.5, k=100, beta=0.05:
	// 2*10/1.5*sqrt(100*ln 20).
	got, err := DeferredDataBound(10, 1.5, 100, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 10.0 / 1.5 * math.Sqrt(100*math.Log(20))
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("bound = %v want %v", got, want)
	}
	if _, err := DeferredDataBound(10, 1.5, 100, 1.5); err == nil {
		t.Error("beta out of range should error")
	}
	if _, err := DeferredDataBound(0, 1.5, 100, 0.05); err == nil {
		t.Error("zero b should error")
	}
}

// TestDeferredBoundEmpirical simulates k Laplace(b/eps) noise draws (the sum
// is the deferred count in Theorem 4's proof) and checks the tail bound.
func TestDeferredBoundEmpirical(t *testing.T) {
	rng := newRNG(44)
	const k, trials = 64, 2000
	b, eps, beta := 10.0, 1.5, 0.05
	alpha, _ := DeferredDataBound(b, eps, k, beta)
	exceed := 0
	for trial := 0; trial < trials; trial++ {
		var sum float64
		for i := 0; i < k; i++ {
			sum += Laplace(b/eps, rng)
		}
		if sum >= alpha {
			exceed++
		}
	}
	if frac := float64(exceed) / trials; frac > beta {
		t.Errorf("empirical exceedance %v > beta %v", frac, beta)
	}
}

func TestANTDeferredBound(t *testing.T) {
	got, err := ANTDeferredBound(20, 1.5, 1000, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := 16 * 20.0 * (math.Log(1000) + math.Log(2/0.05)) / 1.5
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("bound = %v want %v", got, want)
	}
	// Small t is clamped, not an error.
	if _, err := ANTDeferredBound(20, 1.5, 0, 0.05); err != nil {
		t.Errorf("t=0 should clamp: %v", err)
	}
	if _, err := ANTDeferredBound(20, 1.5, 1000, 0); err == nil {
		t.Error("beta 0 should error")
	}
}

// TestJointNoiseXORUniform: the XOR of one honest uniform word with any
// adversarially fixed word is uniform, the property underpinning joint noise
// generation. We fix z0 adversarially and verify the Laplace sample
// distribution is unchanged.
func TestJointNoiseXORUniform(t *testing.T) {
	rng := newRNG(45)
	const n = 100000
	adversarial := uint32(0xDEADBEEF)
	var pos int
	for i := 0; i < n; i++ {
		z := rng.Uint32() ^ adversarial // honest XOR adversarial
		zs := rng.Uint32() ^ adversarial
		if LaplaceFromWords(1, z, zs) > 0 {
			pos++
		}
	}
	if frac := float64(pos) / n; frac < 0.49 || frac > 0.51 {
		t.Errorf("sign balance %v under adversarial XOR, want 0.5", frac)
	}
}

func BenchmarkLaplace(b *testing.B) {
	rng := newRNG(99)
	for i := 0; i < b.N; i++ {
		_ = Laplace(1.0, rng)
	}
}
