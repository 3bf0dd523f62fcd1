package oblivious

import (
	"math/rand"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/table"
)

// entry is the test-only row form of one buffer slot: assertions read slots
// out as entries, and the reference sort below — the closure-driven network
// the packed-key kernel replaced — runs over them.
type entry struct {
	Row    table.Row
	IsView bool
}

func dummy(arity int) entry {
	return entry{Row: make(table.Row, arity)}
}

func newMeter() *mpc.Meter { return mpc.NewMeter(mpc.DefaultCostModel()) }

func randEntries(rng *rand.Rand, n int) []entry {
	es := make([]entry, n)
	for i := range es {
		es[i] = entry{Row: table.Row{int64(rng.Intn(100)), int64(i)}, IsView: rng.Intn(2) == 0}
	}
	return es
}

// bufferOf builds a buffer holding es; arity is taken from the first
// entry (0 when empty).
func bufferOf(es []entry) *Buffer {
	arity := 0
	if len(es) > 0 {
		arity = len(es[0].Row)
	}
	b := NewBuffer(arity, 0)
	for _, e := range es {
		b.AppendSlot(e.Row, e.IsView, 0, 0)
	}
	return b
}

func randBuffer(rng *rand.Rand, n int) (*Buffer, []entry) {
	es := randEntries(rng, n)
	return bufferOf(es), es
}

// entriesOf reads every slot out (copying the payloads).
func entriesOf(b *Buffer) []entry {
	out := make([]entry, b.Len())
	for i := range out {
		out[i] = entry{Row: b.Row(i).Clone(), IsView: b.IsReal(i)}
	}
	return out
}

func countReal(es []entry) int {
	n := 0
	for _, e := range es {
		if e.IsView {
			n++
		}
	}
	return n
}

func realRowsOf(es []entry) []table.Row {
	var out []table.Row
	for _, e := range es {
		if e.IsView {
			out = append(out, e.Row)
		}
	}
	return out
}

func entriesEqual(t *testing.T, got, want []entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.Row.Equal(w.Row) || g.IsView != w.IsView {
			t.Fatalf("slot %d: %+v, want %+v", i, g, w)
		}
	}
}

// sortedRealFirst reports whether all real slots precede all dummies.
func sortedRealFirst(flags []bool) bool {
	seenDummy := false
	for _, f := range flags {
		if !f {
			seenDummy = true
		} else if seenDummy {
			return false
		}
	}
	return true
}

// less is the reference comparator form: a strict weak ordering on entries.
type less func(a, b entry) bool

// byIsViewFirst orders real entries before dummies — the Shrink key.
func byIsViewFirst(a, b entry) bool { return a.IsView && !b.IsView }

// byColumn orders on a row column, dummies last, ties broken by the tag
// column (T1 before T2) per Example 5.1.
func byColumn(col, tagCol int) less {
	return func(a, b entry) bool {
		switch {
		case a.IsView != b.IsView:
			return a.IsView // dummies sink to the tail
		case !a.IsView:
			return false
		case a.Row[col] != b.Row[col]:
			return a.Row[col] < b.Row[col]
		default:
			return a.Row[tagCol] < b.Row[tagCol]
		}
	}
}

// forEachComparator is the reference enumeration of the n-element network,
// comparator by comparator: the textbook iterative odd-even merge sort on
// the next power of two, one candidate at a time, skipping those that leave
// their 2p block or touch an index >= n. It is deliberately not
// batcherLayers — the run-structured enumeration, the retained tables and
// the per-layer cut are all checked against it.
func forEachComparator(n int, cmpSwap func(i, j int)) {
	p2 := 1
	for p2 < n {
		p2 <<= 1
	}
	for p := 1; p < p2; p <<= 1 {
		for k := p; k >= 1; k >>= 1 {
			for j := k % p; j <= p2-1-k; j += 2 * k {
				for i := 0; i <= k-1; i++ {
					if a, b := i+j, i+j+k; a/(p*2) == b/(p*2) && b < n {
						cmpSwap(a, b)
					}
				}
			}
		}
	}
}

// refSort is the reference sort: the network driven by a less closure with
// a branching swap, exactly as the engine ran it before the kernel.
func refSort(es []entry, lt less) {
	forEachComparator(len(es), func(i, j int) {
		if lt(es[j], es[i]) {
			es[i], es[j] = es[j], es[i]
		}
	})
}

// smj runs the truncated join into a fresh buffer of the concatenated arity
// and reads the padded output back.
func smj(t1, t2 []Record, match MatchFunc, bound int, meter *mpc.Meter) []entry {
	dst := NewBuffer(recArity(t1)+recArity(t2), 0)
	TruncatedSortMergeJoinInto(dst, t1, t2, 0, 0, match, bound, meter, mpc.OpTransform)
	return entriesOf(dst)
}

// tightCompact runs TightCompactInto over es and reads both outputs back.
func tightCompact(es []entry, cap int, meter *mpc.Meter, tupleBits int) (out, overflow []entry) {
	src := bufferOf(es)
	dst, over := NewBuffer(src.Arity(), 0), NewBuffer(src.Arity(), 0)
	TightCompactInto(src, cap, dst, over, meter, mpc.OpTransform, tupleBits)
	return entriesOf(dst), entriesOf(over)
}
