package oblivious

import (
	"sync"

	"incshrink/internal/mpc"
	"incshrink/internal/table"
)

// Record is an input tuple to a truncated transformation: a row plus the
// stable record ID that the contribution-budget bookkeeping tracks.
type Record struct {
	ID  int64
	Row table.Row
}

// MatchFunc is the join condition beyond key equality (for example the
// temporal predicate "returned within 10 days" that defines the paper's Q1
// view, or Transform's "at least one side is new" admissibility check). It
// sees the full records so admissibility can depend on carried metadata;
// a nil MatchFunc matches every key-equal pair.
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
func TruncatedSortMergeJoinInto(dst *Buffer, t1, t2 []Record, key1, key2 int, match MatchFunc, bound int, meter *mpc.Meter, op mpc.Op) {
	if bound < 1 {
		bound = 1
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
				if contrib1[li] >= bound || contrib2[src] >= bound {
					continue
				}
				l := t1[li]
				if match != nil && !match(l, r) {
					continue
				}
				dst.AppendJoin(l.Row, r.Row, l.ID, r.ID)
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

// TruncatedNestedLoopJoinInto implements Algorithm 4: for each outer tuple,
// scan the whole inner relation, emit a join entry when both tuples still
// have contribution budget and the keys (and match predicate) agree, then
// obliviously sort the per-outer intermediate array and keep its first
// `bound` slots. Output slots are appended to dst, whose arity must equal
// the concatenated record arities; the output length is exactly
// bound*len(t1). The per-outer intermediate array is a single pooled buffer
// reused across outer tuples.
func TruncatedNestedLoopJoinInto(dst *Buffer, t1, t2 []Record, key1, key2 int, match MatchFunc, bound int, meter *mpc.Meter, op mpc.Op) {
	if bound < 1 {
		bound = 1
	}
	outArity := dst.Arity()

	budget1p, budget2p := getInts(len(t1)), getInts(len(t2))
	defer putInts(budget1p)
	defer putInts(budget2p)
	budget1, budget2 := *budget1p, *budget2p
	for i := range budget1 {
		budget1[i] = bound
	}
	for i := range budget2 {
		budget2[i] = bound
	}

	oi := GetBuffer(outArity)
	defer oi.Release()
	dst.Grow(bound * len(t1))
	for i, l := range t1 {
		oi.Reset()
		oi.Grow(len(t2))
		for j, r := range t2 {
			if meter != nil {
				meter.ChargeEqualities(op, 1, 64)
			}
			if budget1[i] > 0 && budget2[j] > 0 &&
				l.Row[key1] == r.Row[key2] &&
				(match == nil || match(l, r)) {
				oi.AppendJoin(l.Row, r.Row, l.ID, r.ID)
				budget1[i]--
				budget2[j]--
			} else {
				oi.AppendDummy()
			}
		}
		// Alg 4:12-13 — oblivious sort of the intermediate array, keep b.
		SortRealFirst(oi, meter, op, 64*outArity)
		for k := 0; k < bound; k++ {
			if k < oi.Len() {
				dst.AppendFrom(oi, k)
			} else {
				dst.AppendDummy()
			}
		}
	}
}
