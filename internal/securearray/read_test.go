package securearray

import (
	"math/rand"
	"slices"
	"testing"

	"incshrink/internal/oblivious"
	"incshrink/internal/table"
)

// slot is one cache slot as the read oracle sees it.
type slot struct {
	row  table.Row
	real bool
}

// slotsOf copies out b's slots in order.
func slotsOf(b *oblivious.Buffer) []slot {
	out := make([]slot, b.Len())
	for i := range out {
		out[i] = slot{b.Row(i).Clone(), b.IsReal(i)}
	}
	return out
}

// bufferOf builds an arity-2 buffer holding slots in order.
func bufferOf(slots []slot) *oblivious.Buffer {
	b := oblivious.NewBuffer(2, len(slots))
	for _, s := range slots {
		b.AppendSlot(s.row, s.real, 0, 0)
	}
	return b
}

// stableRealFirst is the plain stable partition of slots: reals, then
// dummies, each in arrival order.
func stableRealFirst(slots []slot) []slot {
	reals := slices.DeleteFunc(slices.Clone(slots), func(s slot) bool { return !s.real })
	return append(reals, slices.DeleteFunc(slices.Clone(slots), func(s slot) bool { return s.real })...)
}

// countReal counts the real slots.
func countReal(slots []slot) int {
	n := 0
	for _, s := range slots {
		if s.real {
			n++
		}
	}
	return n
}

// readOracle is the cache read by definition, with no merge and no network:
// the stable real-first partition of every slot the cache holds, cut into
// the fetch and spill, the kept segment and the recycled tail, each clamped
// to what is left, and the real slots of the tail counted.
func readOracle(slots []slot, size, spill, keep int) (fetched, kept []slot, lost int) {
	order := stableRealFirst(slots)
	size = min(max(size, 0), len(order))
	spill = min(max(spill, 0), len(order)-size)
	keep = min(max(keep, 0), len(order)-size-spill)
	return order[:size+spill], order[size+spill : size+spill+keep], countReal(order[size+spill+keep:])
}

// readRun builds a run of n slots, real where fill says so, with payloads
// numbered by seq; a real-first run is stored in its stable real-first
// order, as a compaction leaves it.
func readRun(seq *int64, n int, realFirst bool, fill func(i int) bool) []slot {
	run := make([]slot, n)
	for i := range run {
		*seq++
		run[i] = slot{table.Row{*seq, int64(i)}, fill(i)}
	}
	if realFirst {
		run = stableRealFirst(run)
	}
	return run
}

// appendRun appends run to c as one batch, through AppendRealFirst when it
// is real-first, and to ref, the slots c holds.
func appendRun(c *Cache, ref, run []slot, realFirst bool) []slot {
	if realFirst {
		c.AppendRealFirst(bufferOf(run))
	} else {
		c.Append(bufferOf(run))
	}
	return append(ref, run...)
}

// checkRead runs one read on c and its oracle on ref, the slots c holds, and
// fails unless both leave the same view (refView receives the oracle's fetch)
// and the same arena byte for byte, recycle the same real count, and keep
// the cache's real counter equal to a scan. It returns the oracle's kept
// slots.
func checkRead(t *testing.T, c *Cache, v *View, ref []slot, refView *View, size, spill, keep int) []slot {
	t.Helper()
	lost := c.ReadAndPruneInto(v, size, spill, keep)
	fetched, kept, refLost := readOracle(ref, size, spill, keep)
	refView.Update(bufferOf(fetched))
	if lost != refLost || !sameArena(c.buf, bufferOf(kept)) || !sameView(v, refView) || c.Real() != c.buf.ScanReal() {
		t.Fatalf("read (size %d, spill %d, keep %d) of %d slots: lost %d, oracle %d; arena equal %v, view equal %v; real %d, scan %d",
			size, spill, keep, len(ref), lost, refLost, sameArena(c.buf, bufferOf(kept)), sameView(v, refView), c.Real(), c.buf.ScanReal())
	}
	return kept
}

// TestReadMatchesOracle: over random layouts of raw and real-first runs,
// three reads in a row on one cache — so what a read leaves is the first run
// of the next — each select K = size + spill + keep slots, with K of 0, 1,
// fewer than the shortest run holds, between that and the whole cache, or at
// least the whole cache, or are the flush (keep 0) or Figure 3's plain read
// (keep >= Len). Every read leaves the view, the arena and the lost count the
// oracle gives.
func TestReadMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var seq int64
	for range 150 {
		c, v := newCache(), NewView(2)
		var ref []slot
		refView := NewView(2)
		for range 3 {
			shortest := len(ref)
			for range 1 + rng.Intn(6) {
				n, p := 1+rng.Intn(120), rng.Float64()
				realFirst := rng.Intn(2) == 0
				ref = appendRun(c, ref, readRun(&seq, n, realFirst, func(int) bool { return rng.Float64() < p }), realFirst)
				if shortest == 0 || n < shortest {
					shortest = n
				}
			}
			n := c.Len()
			k := []int{0, 1, rng.Intn(shortest), shortest + rng.Intn(n-shortest+1), n + rng.Intn(5)}[rng.Intn(5)]
			size := rng.Intn(k + 1)
			spill := rng.Intn(k - size + 1)
			keep := k - size - spill
			switch rng.Intn(4) {
			case 0:
				spill, keep = 0, 0 // the flush
			case 1:
				spill, keep = 0, n // Figure 3's plain read
			}
			ref = checkRead(t, c, v, ref, refView, size, spill, keep)
		}
	}
}

// FuzzCacheRead checks one read of a fuzzed cache against the oracle; its
// seed corpus is testdata/fuzz/FuzzCacheRead. The layout bytes decode into at most 16 runs: per run a length byte, a byte
// whose low bit marks the run real-first, then its fill, one bit per slot,
// low bit first (bits past the input's end are dummies). size, spill and keep
// go to the read as they are, negative or oversized included.
func FuzzCacheRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, layout []byte, size, spill, keep int) {
		var seq int64
		c, v := newCache(), NewView(2)
		var ref []slot
		for runs := 0; len(layout) >= 2 && runs < 16; runs++ {
			n, realFirst := int(layout[0]), layout[1]&1 == 1
			bits := layout[2:]
			run := readRun(&seq, n, realFirst, func(i int) bool { return i/8 < len(bits) && bits[i/8]>>(i%8)&1 == 1 })
			ref = appendRun(c, ref, run, realFirst)
			layout = bits[min((n+7)/8, len(bits)):]
		}
		checkRead(t, c, v, ref, NewView(2), size, spill, keep)
	})
}
