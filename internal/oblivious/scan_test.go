package oblivious

import (
	"math"
	"math/rand"
	"testing"
)

// scanColumns draws a column-major padded array of n slots and arity 4 whose
// cells mix small values with the int64 extremes, dummies as wild as reals.
func scanColumns(rng *rand.Rand, n int) (flag []uint8, cols [][]int64) {
	pick := []int64{math.MinInt64, math.MinInt64 + 1, -7, -1, 0, 1, 7, math.MaxInt64 - 1, math.MaxInt64}
	flag, cols = make([]uint8, n), make([][]int64, 4)
	for j := range cols {
		cols[j] = make([]int64, n)
		for i := range cols[j] {
			cols[j][i] = pick[rng.Intn(len(pick))]
		}
	}
	for i := range flag {
		flag[i] = uint8(rng.Intn(2))
	}
	return flag, cols
}

// packFlags is the view's flag layout: slot i at bit 63-i%64 of word i/64,
// every bit at or past len(flag) zero.
func packFlags(flag []uint8) []uint64 {
	words := make([]uint64, (len(flag)+scanBlock-1)/scanBlock)
	for i, f := range flag {
		words[i/scanBlock] |= uint64(f) << (scanBlock - 1 - i%scanBlock)
	}
	return words
}

// TestCountColumnsMatchesBranchingScan pins the kernel's contract at the
// ScanCond level — any closed range, including the full and the one-point
// ones, inverted or not, wrapping differences — against the obvious
// branching loop, at every length across the 64-, 128- and 192-slot word
// boundaries and around outsideWord's four-slot stride.
// (query's TestKernelMatchesOracle covers the operators' lowering.)
func TestCountColumnsMatchesBranchingScan(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	bounds := []uint64{0, 1, 1<<63 - 8, 1<<63 - 1, 1 << 63, 1<<63 + 1, 1<<63 + 8, math.MaxUint64 - 1, math.MaxUint64}
	for n := 0; n <= 200; n++ {
		flag, cols := scanColumns(rng, n)
		words := packFlags(flag)
		for trial := 0; trial < 20; trial++ {
			conds := make([]ScanCond, rng.Intn(4))
			for k := range conds {
				lo, hi := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
				if lo > hi {
					lo, hi = hi, lo
				}
				conds[k] = ScanCond{Col: rng.Intn(4), Diff: rng.Intn(5) - 1, Lo: lo, Hi: hi, Invert: rng.Intn(2) == 0}
			}
			want := 0
			for i := 0; i < n; i++ {
				ok := flag[i] == 1
				for _, c := range conds {
					x := cols[c.Col][i]
					if c.Diff >= 0 {
						x -= cols[c.Diff][i]
					}
					u := uint64(x) ^ signBit
					ok = ok && (c.Lo <= u && u <= c.Hi) != c.Invert
				}
				if ok {
					want++
				}
			}
			if got := CountColumns(words, n, cols, conds); got != want {
				t.Fatalf("n=%d conds=%+v: kernel counts %d, branching scan %d", n, conds, got, want)
			}
		}
	}
}

// BenchmarkCountColumns120k times the scan kernel at the cpdb_query view
// size (larger than L2): the standing count, and the paper's Q1
// right.time - left.time <= 10. Neither may allocate.
func BenchmarkCountColumns120k(b *testing.B) {
	const slots = 120000
	flag, cols := scanColumns(rand.New(rand.NewSource(63)), slots)
	words := packFlags(flag)
	for _, bc := range []struct {
		name  string
		conds []ScanCond
	}{
		{"count", nil},
		{"q1", []ScanCond{{Col: 3, Diff: 1, Lo: 0, Hi: 10 ^ signBit}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sink := 0
			if allocs := testing.AllocsPerRun(3, func() { sink += CountColumns(words, slots, cols, bc.conds) }); allocs != 0 {
				b.Fatalf("CountColumns allocates %v times per scan, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += CountColumns(words, slots, cols, bc.conds)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/slots, "ns/slot")
			_ = sink
		})
	}
}
