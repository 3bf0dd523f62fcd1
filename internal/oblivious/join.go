package oblivious

import (
	"sync"

	"incshrink/internal/mpc"
	"incshrink/internal/table"
)

// Record is an input tuple to a truncated transformation. The engine reads
// only Row: a record's identity is its position in the input (budgets and
// newness are positional). ID is a label for whoever produced the record —
// the workload generator and cmd/datagen number their records with it.
type Record struct {
	ID  int64
	Row table.Row
}

// MatchFunc is the join condition beyond key equality (for example the
// temporal predicate "returned within 10 days" that defines the paper's Q1
// view). A nil MatchFunc matches every key-equal pair.
type MatchFunc func(left, right Record) bool

// intsPool recycles the per-invocation contribution counters and key-group
// windows of the truncated joins.
var intsPool = sync.Pool{New: func() any { s := make([]int, 0, 256); return &s }}

// getInts borrows a zeroed int slice of length n.
func getInts(n int) *[]int {
	p := intsPool.Get().(*[]int)
	s := (*p)[:0]
	for len(s) < n {
		s = append(s, 0)
	}
	*p = s
	return p
}

func putInts(p *[]int) {
	*p = (*p)[:0]
	intsPool.Put(p)
}

// signBit flips an int64 column into an order-preserving uint64 sort key, so
// negative (pad) keys order below positive ones.
const signBit = 1 << 63

// TruncatedSortMergeJoinInto implements the b-truncated oblivious sort-merge
// join of Example 5.1 with truncation bound `bound` (the omega of
// trans_truncate when used inside Transform):
//
//  1. Union the two inputs, tagging T1 rows before T2 rows, and obliviously
//     sort on the join attribute with the tag as tie-break.
//  2. Linearly scan the sorted array. After accessing each tuple, emit
//     exactly `bound` output slots: true join entries between the accessed
//     T2 tuple and preceding key-equal T1 tuples (subject to per-record
//     contribution counters), padded with dummies — so the output length is
//     bound*(len(t1)+len(t2)) regardless of the data.
//
// Every input record contributes at most `bound` entries across the whole
// invocation (Eq. 3); exceeding joins are discarded, which is the source of
// truncation error studied in Section 7.4. Output rows concatenate the T1
// and T2 attributes and are appended to dst, whose arity must equal the
// concatenated record arities. The tagged union is never materialized as
// rows: it is the packed key slice the network sorts, and the scan reads
// key, tag and source position straight back out of it. All intermediates
// come from pools and output rows are written straight into dst's arena, so
// a warm call allocates nothing beyond dst's own growth.
//
// An incremental caller passes fresh = (new1, new2): the first new1 records
// of t1 and the first new2 of t2 are new since its last invocation, and only
// pairs with at least one new side are emitted (the others were emitted
// then). Without it every record is new. The test is on input position, which
// the scan already holds, so it needs no lookup by ID.
func TruncatedSortMergeJoinInto(dst *Buffer, t1, t2 []Record, key1, key2 int, match MatchFunc, bound int, meter *mpc.Meter, op mpc.Op, fresh ...int) {
	if bound < 1 {
		bound = 1
	}
	new1, new2 := len(t1), len(t2)
	if len(fresh) == 2 {
		new1, new2 = fresh[0], fresh[1]
	}
	outArity := dst.Arity()

	// The tagged union as sort keys: T1 rows tag 0, T2 rows tag 1, the low
	// word holding the row's position in its own input so the payloads stay
	// attached through the scan.
	n := len(t1) + len(t2)
	keysp := getKeys(n)
	defer keyPool.Put(keysp)
	keys := *keysp
	for i, r := range t1 {
		keys[i] = sortKey{k: uint64(r.Row[key1]) ^ signBit, w: uint64(i)}
	}
	for i, r := range t2 {
		keys[len(t1)+i] = sortKey{k: uint64(r.Row[key2]) ^ signBit, w: 1<<32 | uint64(i)}
	}

	// Oblivious sort of the union on (key, tag), charged at the real network
	// cost for the wider input side plus the key column.
	sortKeys(keys, meter, op, 64*(max(recArity(t1), recArity(t2))+1))

	// Per-record contribution counters for this invocation.
	contrib1p, contrib2p := getInts(len(t1)), getInts(len(t2))
	windowp := getInts(0)
	defer putInts(contrib1p)
	defer putInts(contrib2p)
	defer putInts(windowp)
	contrib1, contrib2 := *contrib1p, *contrib2p

	dst.Grow(bound * n)
	window := (*windowp)[:0] // indices into t1 sharing the current key
	var windowKey uint64
	for _, sk := range keys {
		key, tag, src := sk.k, sk.w>>32, int(uint32(sk.w))
		// A new key group resets the T1 window; the scan only ever needs the
		// current group because T1 sorts before T2 within a key.
		if key != windowKey {
			window = window[:0]
			windowKey = key
		}
		emitted := 0
		if tag == 0 {
			window = append(window, src)
		} else {
			r := t2[src]
			for _, li := range window {
				if emitted >= bound {
					break
				}
				if contrib1[li] >= bound || contrib2[src] >= bound || (li >= new1 && src >= new2) {
					continue
				}
				l := t1[li]
				if match != nil && !match(l, r) {
					continue
				}
				dst.AppendJoin(l.Row, r.Row)
				contrib1[li]++
				contrib2[src]++
				emitted++
			}
		}
		for ; emitted < bound; emitted++ {
			dst.AppendDummy()
		}
	}
	*windowp = window
	// The emit loop above touches each slot exactly once; charge the output
	// linear scan (predicate + conditional copy per slot).
	if meter != nil {
		meter.ChargeScan(op, bound*n, 64*outArity)
	}
}

func recArity(rs []Record) int {
	if len(rs) == 0 {
		return 0
	}
	return len(rs[0].Row)
}
