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

// scanBounds are the range ends the kernel tests draw: both ends of the
// unsigned domain and the neighbours of the sign flip, so full, one-point
// and empty-complement ranges, and operands that wrap, all come up.
var scanBounds = []uint64{0, 1, 1<<63 - 8, 1<<63 - 1, 1 << 63, 1<<63 + 1, 1<<63 + 8, math.MaxUint64 - 1, math.MaxUint64}

// branchingCount is the kernel's oracle: the obvious loop that branches on
// every flag and every cell.
func branchingCount(flag []uint8, cols [][]int64, conds []ScanCond) int {
	want := 0
	for i := range flag {
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
	return want
}

// TestCountColumnsMatchesBranchingScan pins the kernel's contract at the
// ScanCond level — any closed range, including the full and the one-point
// ones, inverted or not, wrapping differences — against the obvious
// branching loop, at every length across the 64-, 128- and 192-slot block
// boundaries, so the staged tail block at every offset.
// (query's TestKernelMatchesOracle covers the operators' lowering.)
func TestCountColumnsMatchesBranchingScan(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for n := 0; n <= 200; n++ {
		flag, cols := scanColumns(rng, n)
		words := packFlags(flag)
		for trial := 0; trial < 20; trial++ {
			conds := make([]ScanCond, rng.Intn(4))
			for k := range conds {
				lo, hi := scanBounds[rng.Intn(len(scanBounds))], scanBounds[rng.Intn(len(scanBounds))]
				if lo > hi {
					lo, hi = hi, lo
				}
				conds[k] = ScanCond{Col: rng.Intn(4), Diff: rng.Intn(5) - 1, Lo: lo, Hi: hi, Invert: rng.Intn(2) == 0}
			}
			if got, want := CountColumns(words, n, cols, conds), branchingCount(flag, cols, conds); got != want {
				t.Fatalf("n=%d conds=%+v: kernel counts %d, branching scan %d", n, conds, got, want)
			}
		}
	}
}

// FuzzCountColumns checks the kernel against branchingCount on fuzzed
// programs: n in [0, 320] — five blocks, the tail at every offset — cells
// and flags drawn by scanColumns from seed, and up to eight conditions of
// three bytes each: the column and the subtrahend (Col == Diff included),
// the range's ends from scanBounds, and the top bit of the third byte for
// Invert, so inverted full and one-point ranges too.
func FuzzCountColumns(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint16, seed int64, prog []byte) {
		flag, cols := scanColumns(rand.New(rand.NewSource(seed)), int(n%321))
		var conds []ScanCond
		for ; len(prog) >= 3 && len(conds) < 8; prog = prog[3:] {
			lo, hi := scanBounds[int(prog[1])%len(scanBounds)], scanBounds[int(prog[2]&0x7f)%len(scanBounds)]
			if lo > hi {
				lo, hi = hi, lo
			}
			conds = append(conds, ScanCond{Col: int(prog[0] % 4), Diff: int(prog[0]>>2%5) - 1, Lo: lo, Hi: hi, Invert: prog[2]&0x80 != 0})
		}
		if got, want := CountColumns(packFlags(flag), len(flag), cols, conds), branchingCount(flag, cols, conds); got != want {
			t.Fatalf("n=%d conds=%+v: kernel counts %d, branching scan %d", len(flag), conds, got, want)
		}
	})
}

// BenchmarkCountColumns120k times the scan kernel at the cpdb_query view
// size (larger than L2): the standing count, and the paper's Q1
// right.time - left.time <= 10, also over one slot more, so the staged tail
// block is timed too. None may allocate.
func BenchmarkCountColumns120k(b *testing.B) {
	const slots = 120000
	flag, cols := scanColumns(rand.New(rand.NewSource(63)), slots)
	tailFlag, tailCols := scanColumns(rand.New(rand.NewSource(64)), slots+1)
	q1 := []ScanCond{{Col: 3, Diff: 1, Lo: 0, Hi: 10 ^ signBit}}
	for _, bc := range []struct {
		name  string
		flag  []uint8
		cols  [][]int64
		conds []ScanCond
	}{
		{"count", flag, cols, nil},
		{"q1", flag, cols, q1},
		{"q1_120001", tailFlag, tailCols, q1},
	} {
		words, n := packFlags(bc.flag), len(bc.flag)
		b.Run(bc.name, func(b *testing.B) {
			sink := 0
			if allocs := testing.AllocsPerRun(3, func() { sink += CountColumns(words, n, bc.cols, bc.conds) }); allocs != 0 {
				b.Fatalf("CountColumns allocates %v times per scan, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += CountColumns(words, n, bc.cols, bc.conds)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/slot")
			_ = sink
		})
	}
}
