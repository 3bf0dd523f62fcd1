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
// attribute — that satisfy every condition. A slot costs one carry per
// condition, shifted into a 64-slot verdict word that is ANDed with the
// block's flag word and popcounted; no branch, index or allocation depends
// on a flag or a cell, so the trace is a function of n and conds alone.
// Without conditions the answer is one popcount per flag word, so every bit
// at or past n must be zero. The caller charges the scan.
func CountColumns(flag []uint64, n int, cols [][]int64, conds []ScanCond) int {
	total := 0
	if len(conds) == 0 {
		for _, w := range flag[:(n+scanBlock-1)/scanBlock] {
			total += bits.OnesCount64(w)
		}
		return total
	}
	for lo := 0; lo < n; lo += scanBlock {
		hi := min(lo+scanBlock, n)
		// Slot lo+k moves to bit hi-lo-1-k, the order outsideWord shifts its
		// verdicts in.
		pass := flag[lo/scanBlock] >> (scanBlock - (hi - lo))
		for _, c := range conds {
			a, b, mask := cols[c.Col], cols[c.Col], int64(0)
			if c.Diff >= 0 {
				b, mask = cols[c.Diff], -1
			}
			// X - Lo with X = operand ^ signBit is operand - (Lo ^ signBit).
			out := outsideWord(a[lo:hi], b[lo:hi], mask, c.Lo^signBit, c.Hi-c.Lo)
			// Keep the slots inside the range: clear the out bits, or, for an
			// inverted condition, everything but them.
			pass &= out ^ (boolWord(c.Invert) - 1)
		}
		total += bits.OnesCount64(pass)
	}
	return total
}

// outsideWord evaluates one range test over up to 64 slots: bit len(a)-1-k
// of the result is set iff slot k's operand a[k] - b[k]&mask, less off, is
// above span — i.e. outside the condition's range. x > span is the carry of
// x + ^span, and the carry is the carry-in of w+w, so a slot is two loads,
// two subtractions, an AND and an ADD; ADC pair. Unrolled four slots to a
// turn and kept out of line: inlined into the block loop the compiler spills
// w, and the store-to-load round trip on every slot costs more than the
// whole comparison.
//
//go:noinline
func outsideWord(a, b []int64, mask int64, off, span uint64) uint64 {
	b = b[:len(a)]
	nspan := ^span
	var w uint64
	k := 0
	for ; k+4 <= len(a); k += 4 {
		a4, b4 := a[k:k+4:k+4], b[k:k+4:k+4]
		_, o0 := bits.Add64(uint64(a4[0]-b4[0]&mask)-off, nspan, 0)
		w, _ = bits.Add64(w, w, o0)
		_, o1 := bits.Add64(uint64(a4[1]-b4[1]&mask)-off, nspan, 0)
		w, _ = bits.Add64(w, w, o1)
		_, o2 := bits.Add64(uint64(a4[2]-b4[2]&mask)-off, nspan, 0)
		w, _ = bits.Add64(w, w, o2)
		_, o3 := bits.Add64(uint64(a4[3]-b4[3]&mask)-off, nspan, 0)
		w, _ = bits.Add64(w, w, o3)
	}
	for ; k < len(a); k++ {
		_, out := bits.Add64(uint64(a[k]-b[k]&mask)-off, nspan, 0)
		w, _ = bits.Add64(w, w, out)
	}
	return w
}
