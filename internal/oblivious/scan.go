package oblivious

import "math/bits"

// ScanCond is one condition of a compiled view scan. A slot's operand is
// cols[Col][i] - cols[Diff][i] (cols[Col][i] alone when Diff < 0), with int64
// wraparound exactly as the plaintext predicate computes it; flipping its
// sign bit maps it to the order-preserving unsigned domain, where the
// condition holds iff it lies in [Lo, Hi] — outside it when Invert is set.
// Every field is public: it is the query text, lowered by query.Lower.
type ScanCond struct {
	Col, Diff int
	Lo, Hi    uint64
	Invert    bool
}

// scanBlock is the number of slots whose verdicts the kernel folds into one
// word before it touches the running total: one word of the flag bitset.
const scanBlock = 64

// CountColumns is the scan kernel: the number of real slots of a
// column-major padded array of n slots — flag holds the isView bits as a
// bitset, slot i at bit 63-i%64 of word i/64, cols one []int64 per
// attribute — that satisfy every condition. A 64-slot block costs one
// outsideBlock per condition, whose verdict words are ANDed with the block's
// flag word and popcounted; the last, partial block is staged into
// zero-padded stack arrays first, so it runs the same kernel against its flag
// word unshifted. That, and the count without conditions, one popcount per
// flag word, need every bit at or past n to be zero. No branch, index or
// allocation depends on a flag or a cell, so the trace is a function of n and
// conds alone. The caller charges the scan.
func CountColumns(flag []uint64, n int, cols [][]int64, conds []ScanCond) int {
	total := 0
	if len(conds) == 0 {
		for _, w := range flag[:(n+scanBlock-1)/scanBlock] {
			total += bits.OnesCount64(w)
		}
		return total
	}
	var zero, tailA, tailB [scanBlock]int64
	for lo := 0; lo < n; lo += scanBlock {
		pass := flag[lo/scanBlock]
		for _, c := range conds {
			a, b := block(cols[c.Col], lo, n, &tailA), &zero
			if c.Diff >= 0 {
				b = block(cols[c.Diff], lo, n, &tailB)
			}
			// X - Lo with X = operand ^ signBit is operand - (Lo ^ signBit).
			out := outsideBlock(a, b, c.Lo^signBit, c.Hi-c.Lo)
			// Keep the slots inside the range: clear the out bits, or, for an
			// inverted condition, everything but them.
			pass &= out ^ (boolWord(c.Invert) - 1)
		}
		total += bits.OnesCount64(pass)
	}
	return total
}

// block is col's 64 slots from lo on, in place, or — for the partial block
// at the end of n slots — copied into tail, whose slots past them stay zero.
func block(col []int64, lo, n int, tail *[scanBlock]int64) *[scanBlock]int64 {
	if n-lo < scanBlock {
		copy(tail[:], col[lo:n])
		return tail
	}
	return (*[scanBlock]int64)(col[lo:])
}

// outsideBlock evaluates one range test over a 64-slot block: bit 63-k of
// the result is set iff slot k's operand a[k] - b[k], less off, is above
// span — i.e. outside the condition's range. x > span is the carry of
// x + ^span, and the carry is the carry-in of w+w, so a slot is two loads,
// two subtractions and an ADD; ADC pair. Slots 0-31 and 32-63 run as two
// independent carry chains, so each chain's ADC overlaps the other's; a
// one-column condition passes an all-zero b. The arrays are sliced once so
// their nil checks leave the loop, and the kernel is kept out of line:
// inlined into the block loop the compiler spills the chains.
//
//go:noinline
func outsideBlock(a, b *[scanBlock]int64, off, span uint64) uint64 {
	nspan, x, y := ^span, a[:], b[:]
	var hi, lo uint64
	for k := 0; k < scanBlock/2; k++ {
		_, c := bits.Add64(uint64(x[k]-y[k])-off, nspan, 0)
		hi, _ = bits.Add64(hi, hi, c)
		_, c = bits.Add64(uint64(x[k+scanBlock/2]-y[k+scanBlock/2])-off, nspan, 0)
		lo, _ = bits.Add64(lo, lo, c)
	}
	return hi<<(scanBlock/2) | lo
}
