package oblivious

import (
	"encoding/binary"
	"math/bits"
)

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
// word before it touches the running total.
const scanBlock = 64

// CountColumns is the scan kernel: the number of real slots of a
// column-major padded array — flag holds the isView bit of every slot as a
// 0/1 byte, cols one []int64 per attribute — that satisfy every condition.
// A slot costs one borrow per condition, shifted into a 64-slot verdict word
// that is ANDed with the gathered flag bits and popcounted; no branch, index
// or allocation depends on a flag or a cell, so the trace is a function of
// len(flag) and conds alone. Without conditions the answer is the popcount
// of the flag bytes, eight slots to a word. The caller charges the scan.
func CountColumns(flag []uint8, cols [][]int64, conds []ScanCond) int {
	n, total := len(flag), 0
	if len(conds) == 0 {
		i := 0
		for ; i+8 <= n; i += 8 {
			total += bits.OnesCount64(binary.LittleEndian.Uint64(flag[i : i+8]))
		}
		for ; i < n; i++ {
			total += int(flag[i])
		}
		return total
	}
	for lo := 0; lo < n; lo += scanBlock {
		hi := min(lo+scanBlock, n)
		pass := flagWord(flag[lo:hi])
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

// flagWord gathers up to 64 flag bytes into one word, slot k of f at bit
// len(f)-1-k (the order outsideWord shifts its verdicts in). Eight 0/1 bytes
// collapse to eight bits in one multiply: byte i lands on bit 63-i of the
// product, and no two partial products share a bit, so nothing carries.
func flagWord(f []uint8) uint64 {
	var w uint64
	k := 0
	for ; k+8 <= len(f); k += 8 {
		w = w<<8 | binary.LittleEndian.Uint64(f[k:k+8])*0x8040201008040201>>56
	}
	for ; k < len(f); k++ {
		w = w<<1 | uint64(f[k])
	}
	return w
}

// outsideWord evaluates one range test over up to 64 slots: bit len(a)-1-k
// of the result is set iff slot k's operand a[k] - b[k]&mask, less off, is
// above span — i.e. outside the condition's range. The comparison is the
// borrow of span - x, and the borrow is the carry-in of w+w, so a slot is two
// loads, three subtractions and an add-with-carry. Kept out of line: inlined
// into the block loop the compiler spills w, and the store-to-load round trip
// on every slot costs more than the whole comparison.
//
//go:noinline
func outsideWord(a, b []int64, mask int64, off, span uint64) uint64 {
	b = b[:len(a)]
	var w uint64
	for k := 0; k < len(a); k++ {
		_, out := bits.Sub64(span, uint64(a[k]-b[k]&mask)-off, 0)
		w, _ = bits.Add64(w, w, out)
	}
	return w
}
