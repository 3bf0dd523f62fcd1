package securearray

import (
	"math/rand"
	"testing"
)

func TestReadAndPruneSegments(t *testing.T) {
	// 30 slots, 12 real. Fetch 5, spill 4, keep 10 => 11 recycled.
	rng := rand.New(rand.NewSource(1))
	c := newCache()
	v := NewView(2)
	c.Append(batch(rng, 30, 12))
	lost := c.ReadAndPruneInto(v, 5, 4, 10)
	if v.Len() != 9 {
		t.Fatalf("fetched %d slots, want 5+4", v.Len())
	}
	// Sorted real-first: the 9 fetched slots are all real.
	if v.Real() != 9 {
		t.Errorf("fetched %d real, want 9", v.Real())
	}
	if c.Len() != 10 {
		t.Errorf("cache len %d, want keep=10", c.Len())
	}
	// 3 real remain in the kept segment; none recycled.
	if c.Real() != 3 {
		t.Errorf("cache real %d, want 3", c.Real())
	}
	if lost != 0 {
		t.Errorf("lost %d, want 0", lost)
	}
}

func TestReadAndPruneLosesTailReal(t *testing.T) {
	// 20 slots, 15 real. Fetch 2, spill 3, keep 5 => 10 recycled, of which
	// 15-2-3-5 = 5 are real.
	rng := rand.New(rand.NewSource(2))
	c := newCache()
	c.Append(batch(rng, 20, 15))
	lost := c.ReadAndPruneInto(NewView(2), 2, 3, 5)
	if lost != 5 {
		t.Errorf("lost = %d, want 5", lost)
	}
	if c.Real() != 5 {
		t.Errorf("cache real %d, want 5", c.Real())
	}
}

func TestReadAndPruneClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := newCache()
	v := NewView(2)
	c.Append(batch(rng, 10, 4))
	// Oversized spill clamps to remaining; negative values clamp to 0.
	lost := c.ReadAndPruneInto(v, 3, 100, -5)
	if v.Len() != 10 {
		t.Errorf("fetched %d, want everything", v.Len())
	}
	if lost != 0 || c.Len() != 0 {
		t.Errorf("lost=%d cacheLen=%d after full spill", lost, c.Len())
	}
	// Keep larger than remainder keeps all without a flush.
	c2 := newCache()
	c2.Append(batch(rng, 10, 4))
	lost = c2.ReadAndPruneInto(NewView(2), 2, 1, 100)
	if lost != 0 || c2.Len() != 7 {
		t.Errorf("lost=%d cacheLen=%d, want 0 and 7", lost, c2.Len())
	}
}

func TestReadAndPruneConservesReal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(40)
		real := rng.Intn(n + 1)
		c := newCache()
		v := NewView(2)
		b := batch(rng, n, real)
		c.Append(b)
		lost := c.ReadAndPruneInto(v, rng.Intn(n+2), rng.Intn(10), rng.Intn(20))
		got := v.Real() + c.Real() + lost
		if got != real {
			t.Fatalf("trial %d: fetched+kept+lost = %d, want %d", trial, got, real)
		}
	}
}

func TestDrainInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := newCache()
	v := NewView(2)
	b := batch(rng, 12, 5)
	c.Append(b)
	c.DrainInto(v)
	if v.Len() != 12 || c.Len() != 0 {
		t.Errorf("drain moved %d, cache %d", v.Len(), c.Len())
	}
	// Drain preserves order (no sort).
	cols := v.cols
	for i := 0; i < b.Len(); i++ {
		if cols[0][i] != b.At(i, 0) || cols[1][i] != b.At(i, 1) || viewFlag(v, i) != b.FlagByte(i) {
			t.Fatalf("drain reordered slot %d", i)
		}
	}
}

// TestPrune: a synchronization that fetches and spills nothing is the bare
// cache cap — sort real-first, recycle every slot beyond keep, count the
// real tuples lost.
func TestPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := newCache()
	v := NewView(2)
	prune := func(c *Cache, keep int) int { return c.ReadAndPruneInto(v, 0, 0, keep) }
	c.Append(batch(rng, 20, 6))
	lost := prune(c, 10)
	if lost != 0 {
		t.Errorf("prune above real count lost %d", lost)
	}
	if c.Len() != 10 || c.Real() != 6 {
		t.Errorf("after prune: len=%d real=%d", c.Len(), c.Real())
	}
	// Prune below real count loses the difference.
	lost = prune(c, 4)
	if lost != 2 {
		t.Errorf("tight prune lost %d, want 2", lost)
	}
	if c.Len() != 4 || c.Real() != 4 {
		t.Errorf("after tight prune: len=%d real=%d", c.Len(), c.Real())
	}
	// No-op cases: keeping more than present loses nothing.
	if prune(c, 100) != 0 || c.Len() != 4 || c.Real() != 4 {
		t.Error("oversized keep lost tuples")
	}
	c2 := newCache()
	if prune(c2, -1) != 0 {
		t.Error("negative keep on empty cache should lose nothing")
	}
	if v.Len() != 0 {
		t.Errorf("pruning alone moved %d slots into the view", v.Len())
	}
}

// TestReadAndPruneShortKeepMatchesCutThenTruncate pins the read's cuts
// against the reference that orders everything and then cuts the prefix and
// truncates to keep: the same lost real count, the same surviving arena byte
// for byte, and the same view, when keep is shorter than the remainder — the
// case where the read's selection stops short of the slots it fetches and
// keeps most often.
func TestReadAndPruneShortKeepMatchesCutThenTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var seq int64
	for trial := range 40 {
		c := newCache()
		v, refView := NewView(2), NewView(2)
		var slots []slot
		for range 1 + rng.Intn(3) {
			n := 20 + rng.Intn(60)
			b := compacted(rng, &seq, n, rng.Intn(n+1))
			c.AppendRealFirst(b)
			slots = append(slots, slotsOf(b)...)
		}
		size, spill := rng.Intn(c.Len()/2), rng.Intn(8)
		keep := rng.Intn(c.Len() - size - spill)

		lost := c.ReadAndPruneInto(v, size, spill, keep)
		order := stableRealFirst(slots)
		refView.Update(bufferOf(order[:size+spill]))
		rest := order[size+spill:]
		refLost, ref := countReal(rest[keep:]), bufferOf(rest[:keep])

		if lost != refLost || !sameArena(c.buf, ref) || !sameView(v, refView) {
			t.Fatalf("trial %d (size %d, spill %d, keep %d): lost %d, reference %d; arenas equal %v, views equal %v",
				trial, size, spill, keep, lost, refLost, sameArena(c.buf, ref), sameView(v, refView))
		}
		if c.Len() != keep || c.Real() != c.buf.ScanReal() {
			t.Fatalf("trial %d: cache of %d slots (%d real, scan %d), want keep = %d", trial, c.Len(), c.Real(), c.buf.ScanReal(), keep)
		}
	}
}
