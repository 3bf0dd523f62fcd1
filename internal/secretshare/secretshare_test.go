package secretshare

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// newRand is the tests' seeded source.
func newRand(seed int64) RNG { return rand.New(rand.NewSource(seed)) }

func TestShareRecoverRoundTrip(t *testing.T) {
	rng := newRand(1)
	for _, x := range []Word{0, 1, 42, 0xFFFFFFFF, 0x80000000, 123456789} {
		s := Share(x, rng)
		if got := Recover(s); got != x {
			t.Errorf("Recover(Share(%d)) = %d", x, got)
		}
	}
}

func TestShareRecoverProperty(t *testing.T) {
	rng := newRand(2)
	f := func(x Word) bool { return Recover(Share(x, rng)) == x }
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
	rng := newRand(5)
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

func BenchmarkShare(b *testing.B) {
	rng := newRand(100)
	for i := 0; i < b.N; i++ {
		_ = Share(Word(i), rng)
	}
}
