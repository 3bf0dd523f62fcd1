package secretshare

import (
	"testing"
	"testing/quick"
)

func TestShareRecoverRoundTrip(t *testing.T) {
	rng := NewRand(1)
	for _, x := range []Word{0, 1, 42, 0xFFFFFFFF, 0x80000000, 123456789} {
		s := Share(x, rng)
		if got := Recover(s); got != x {
			t.Errorf("Recover(Share(%d)) = %d", x, got)
		}
	}
}

func TestShareRecoverProperty(t *testing.T) {
	rng := NewRand(2)
	f := func(x Word) bool { return Recover(Share(x, rng)) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroIsSharingOfZero(t *testing.T) {
	rng := NewRand(3)
	for i := 0; i < 100; i++ {
		if got := Recover(Zero(rng)); got != 0 {
			t.Fatalf("Zero recovered to %d", got)
		}
	}
}

func TestAddIsXORHomomorphic(t *testing.T) {
	rng := NewRand(4)
	f := func(a, b Word) bool {
		sa, sb := Share(a, rng), Share(b, rng)
		return Recover(Add(sa, sb)) == a^b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSingleShareUniform checks the confidentiality side of Lemma 9: a single
// share of a fixed secret is (statistically) uniform, so it is distributed
// identically for two different messages. We bucket the top byte of many
// shares of two very different secrets and compare histograms coarsely.
func TestSingleShareUniform(t *testing.T) {
	const n = 64 * 1024
	rng := NewRand(5)
	histA := make([]int, 16)
	histB := make([]int, 16)
	for i := 0; i < n; i++ {
		histA[Share(0, rng).S1>>28]++
		histB[Share(0xDEADBEEF, rng).S1>>28]++
	}
	exp := n / 16
	for b := 0; b < 16; b++ {
		for _, h := range [2]int{histA[b], histB[b]} {
			if h < exp*8/10 || h > exp*12/10 {
				t.Fatalf("bucket %d count %d far from uniform expectation %d", b, h, exp)
			}
		}
	}
}

func TestReshareInside(t *testing.T) {
	rng := NewRand(10)
	f := func(secret, z0, z1 Word) bool {
		s := ReshareInside(secret, z0, z1)
		return Recover(s) == secret
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	_ = rng
}

func TestReshareInsideMaskedFromEachServer(t *testing.T) {
	// Server 0 sees share S0 = z0^z1 and knows z0; its residual knowledge
	// z1 = S0^z0 is a value it did not choose. Server 1 sees S1 = c^z0^z1 and
	// knows z1; its residual knowledge c^z0 is masked by z0. We verify the
	// algebra, i.e. neither share equals the secret unless the masks collide.
	s := ReshareInside(0xCAFEBABE, 0x11111111, 0x22222222)
	if s.S0 == 0xCAFEBABE && s.S1 == 0 {
		t.Fatal("share leaked secret in the clear")
	}
	if Recover(s) != 0xCAFEBABE {
		t.Fatal("recover failed")
	}
}

func BenchmarkShare(b *testing.B) {
	rng := NewRand(100)
	for i := 0; i < b.N; i++ {
		_ = Share(Word(i), rng)
	}
}
