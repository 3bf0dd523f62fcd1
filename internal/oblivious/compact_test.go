package oblivious

import (
	"math"
	"math/rand"
	"testing"

	"incshrink/internal/table"
)

func TestTightCompactBasic(t *testing.T) {
	es := []entry{
		dummy(2),
		{Row: table.Row{1, 0}, IsView: true},
		dummy(2),
		{Row: table.Row{2, 0}, IsView: true},
	}
	out, overflow := tightCompact(es, 3)
	if len(out) != 3 {
		t.Fatalf("output length %d, want cap 3", len(out))
	}
	if countReal(out) != 2 {
		t.Errorf("output real count %d, want 2", countReal(out))
	}
	if len(overflow) != 0 {
		t.Errorf("unexpected overflow %v", overflow)
	}
}

func TestTightCompactOverflow(t *testing.T) {
	es := make([]entry, 6)
	for i := range es {
		es[i] = entry{Row: table.Row{int64(i)}, IsView: true}
	}
	out, overflow := tightCompact(es, 4)
	if len(out) != 4 || countReal(out) != 4 {
		t.Errorf("out: %d slots %d real", len(out), countReal(out))
	}
	if len(overflow) != 2 {
		t.Fatalf("overflow %d, want 2", len(overflow))
	}
	for _, e := range overflow {
		if !e.IsView {
			t.Error("overflow carries dummies")
		}
	}

	// A nil overflow drops the reals past the cap: the same packed output.
	src := bufferOf(es)
	dst := NewBuffer(src.Arity(), 0)
	TightCompactInto(src, 4, dst, nil, nil, 0, 0)
	if got := entriesOf(dst); len(got) != 4 || countReal(got) != 4 || !table.MultisetEqual(realRowsOf(got), realRowsOf(out)) {
		t.Errorf("nil overflow: %d slots, %d real, want the 4 the overflowing call packed", len(got), countReal(got))
	}
}

func TestTightCompactEdgeCases(t *testing.T) {
	// Negative cap clamps to zero; everything real overflows.
	es := []entry{{Row: table.Row{1}, IsView: true}}
	out, overflow := tightCompact(es, -1)
	if len(out) != 0 || len(overflow) != 1 {
		t.Errorf("negative cap: out=%d overflow=%d", len(out), len(overflow))
	}
	// Empty input pads to cap with dummies of zero arity.
	out, overflow = tightCompact(nil, 2)
	if len(out) != 2 || len(overflow) != 0 || countReal(out) != 0 {
		t.Errorf("empty input: out=%d overflow=%d", len(out), len(overflow))
	}
}

func TestTightCompactPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		es := randEntries(rng, 40)
		orig := realRowsOf(es)
		cap := rng.Intn(50)
		out, overflow := tightCompact(es, cap)
		combined := append(realRowsOf(out), realRowsOf(overflow)...)
		if !table.MultisetEqual(combined, orig) {
			t.Fatalf("trial %d: compaction changed the real multiset", trial)
		}
		if len(out) != cap {
			t.Fatalf("trial %d: out length %d != cap %d", trial, len(out), cap)
		}
	}
}

// kernelLess reports whether the kernel orders a strictly before b: the
// comparator (0,1) over [b, a] exchanges exactly when a < b.
func kernelLess(a, b sortKey) bool {
	a.w, b.w = a.w&^0xFFFFFFFF|1, b.w&^0xFFFFFFFF
	keys := []sortKey{b, a}
	exchange(keys, []int32{0, 1})
	return keys[0] == a
}

// TestByColumnOrdering pins the comparator definition twice: the reference
// closures order as Example 5.1 and Figure 3 say, and the kernel's packed
// keys — (key, tag) for the join, 1-isView for the cache — agree with them
// on every case, so the two are one comparator.
func TestByColumnOrdering(t *testing.T) {
	real := func(key, tag int64) entry { return entry{Row: table.Row{key, tag}, IsView: true} }
	joinKey := func(e entry) sortKey { return sortKey{k: uint64(e.Row[0]) ^ signBit, w: uint64(e.Row[1]) << 32} }
	cacheKey := func(e entry) sortKey { return sortKey{k: 1 - boolWord(e.IsView)} }
	ref := byColumn(0, 1)
	for _, tc := range []struct {
		name string
		a, b entry
		want bool
	}{
		{"key order", real(1, 1), real(2, 0), true},
		{"key order reversed", real(2, 0), real(1, 1), false},
		{"tag tie-break", real(1, 0), real(1, 1), true},
		{"tag tie-break reversed", real(1, 1), real(1, 0), false},
		{"equal entries must not swap", real(1, 1), real(1, 1), false},
		{"negative before positive", real(-1, 1), real(0, 0), true},
		{"extremes", real(math.MinInt64, 1), real(math.MaxInt64, 0), true},
		{"extremes reversed", real(math.MaxInt64, 0), real(math.MinInt64, 1), false},
	} {
		if got := ref(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: reference less = %v, want %v", tc.name, got, tc.want)
		}
		if got := kernelLess(joinKey(tc.a), joinKey(tc.b)); got != tc.want {
			t.Errorf("%s: kernel less = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Dummies sink regardless of payload.
	for _, tc := range []struct {
		name string
		a, b entry
		want bool
	}{
		{"real must order before dummy", real(9, 0), dummy(2), true},
		{"dummy must not order before real", dummy(2), real(0, 0), false},
		{"dummy-dummy must not swap", dummy(2), dummy(2), false},
	} {
		if got := byIsViewFirst(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: reference less = %v, want %v", tc.name, got, tc.want)
		}
		if got := kernelLess(cacheKey(tc.a), cacheKey(tc.b)); got != tc.want {
			t.Errorf("%s: kernel less = %v, want %v", tc.name, got, tc.want)
		}
		if got := ref(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: byColumn = %v, want %v", tc.name, got, tc.want)
		}
	}
	// The cache key sees the isView bit only: payloads never reorder reals.
	if byIsViewFirst(real(1, 0), real(3, 0)) || kernelLess(cacheKey(real(1, 0)), cacheKey(real(3, 0))) {
		t.Error("real-real must not swap under the real-first order")
	}
}

func TestSortedByIsViewDetectsViolations(t *testing.T) {
	if !sortedRealFirst([]bool{true, true, false, false}) {
		t.Error("sorted array reported unsorted")
	}
	if sortedRealFirst([]bool{true, false, true}) {
		t.Error("unsorted array reported sorted")
	}
	if !sortedRealFirst(nil) {
		t.Error("empty array should count as sorted")
	}
}

func TestRecArityEmpty(t *testing.T) {
	if recArity(nil) != 0 {
		t.Error("empty record slice arity wrong")
	}
	if recArity([]Record{{Row: table.Row{1, 2, 3}}}) != 3 {
		t.Error("arity wrong")
	}
}
