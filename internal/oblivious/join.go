package oblivious

import (
	"incshrink/internal/mpc"
	"incshrink/internal/table"
)

// Record is an input tuple to a truncated transformation. The engine reads
// only Row: a record's identity is its position in the input (budgets and
// newness are positional). ID is a label for whoever produced the record —
// the workload generator numbers its records with it.
type Record struct {
	ID  int64
	Row table.Row
}

// MatchFunc is the join condition beyond key equality (for example the
// temporal predicate "returned within 10 days" that defines the paper's Q1
// view). A nil MatchFunc matches every key-equal pair.
type MatchFunc func(left, right Record) bool

// signBit flips an int64 column into an order-preserving uint64 sort key, so
// negative (pad) keys order below positive ones.
const signBit = 1 << 63

// TruncatedSortMergeJoinInto implements the b-truncated oblivious sort-merge
// join of Example 5.1 with truncation bound `bound` (the omega of
// trans_truncate when used inside Transform):
//
//  1. Union the two inputs, tagging T1 rows before T2 rows, and obliviously
//     sort on the join attribute with the tag as tie-break.
//  2. Linearly scan the sorted array (emitJoin). After accessing each tuple,
//     emit exactly `bound` output slots: true join entries between the
//     accessed T2 tuple and preceding key-equal T1 tuples (subject to
//     per-record contribution counters), padded with dummies — so the output
//     length is bound*(len(t1)+len(t2)) regardless of the data.
//
// Every input record contributes at most `bound` entries across the whole
// invocation (Eq. 3); exceeding joins are discarded, which is the source of
// truncation error studied in Section 7.4. Output rows concatenate the T1
// and T2 attributes and are appended to dst, whose arity must equal the
// concatenated record arities. The tagged union is never materialized as
// rows: it is the packed key slice the network sorts, and the scan reads
// key, tag and union position straight back out of it; intermediates live in
// dst's workspace, so a call on a reused dst allocates nothing.
//
// This is the from-scratch form — sort everything, then scan — and the
// reference for MergeJoinInto, which the engine runs. fresh = (new1, new2)
// says the first new1 records of t1 and the first new2 of t2 are new since
// the caller's last invocation, and only pairs with a new side are emitted;
// without it every record is new.
func TruncatedSortMergeJoinInto(dst *Buffer, t1, t2 []Record, key1, key2 int, match MatchFunc, bound int, meter *mpc.Meter, op mpc.Op, fresh ...int) {
	new1, new2 := len(t1), len(t2)
	if len(fresh) == 2 {
		new1, new2 = fresh[0], fresh[1]
	}

	// The tagged union as sort keys: T1 rows tag 0, T2 rows tag 1, the low
	// word holding the row's position in the union.
	dst.ws.keys = resized(dst.ws.keys, len(t1)+len(t2))
	keys := dst.ws.keys
	for i, r := range t1 {
		keys[i] = sortKey{k: uint64(r.Row[key1]) ^ signBit, w: uint64(i)}
	}
	for i, r := range t2 {
		keys[len(t1)+i] = sortKey{k: uint64(r.Row[key2]) ^ signBit, w: 1<<32 | uint64(len(t1)+i)}
	}

	// Sort the union on (key, tag), charged for the wider side plus the key.
	sortKeys(&dst.ws, keys, meter, op, 64*(max(recArity(t1), recArity(t2))+1))

	emitJoin(dst, keys,
		func(i int) table.Row {
			if i < len(t1) {
				return t1[i].Row
			}
			return t2[i-len(t1)].Row
		},
		func(i int) bool { return i < new1 || (i >= len(t1) && i < len(t1)+new2) },
		match, bound, nil, nil, nil, meter, op)
}

// MergeJoinInto is the join for a caller that keeps the tagged union between
// invocations: sort once, merge thereafter. in holds the union as rows
// {record..., tag, caller's columns...}, the record half of dst's arity wide;
// in[:m] is in (key, tag) order — the caller's carry — and in[m:] is new. Only
// the new rows are sorted, one merge places them among the carry, and the
// from-scratch join's linear scan emits every pair with a new side:
// bound*in.Len() slots appended to dst, behind whatever it already holds. The
// same scan retires the union: the rows keep selects are appended to next in
// (key, tag) order — the order-preserving compaction that yields the next
// carry, with no row copied twice. The caller charges that compaction.
func MergeJoinInto(dst, next, in *Buffer, m, key int, keep func(table.Row) bool, match MatchFunc, bound int, meter *mpc.Meter, op mpc.Op) {
	arity := dst.Arity() / 2
	dst.ws.keys = resized(dst.ws.keys, in.Len())
	keys := dst.ws.keys
	for i := range in.Len() {
		r := in.Row(i)
		keys[i] = sortKey{k: uint64(r[key]) ^ signBit, w: uint64(r[arity])<<32 | uint64(i)}
	}
	sortKeys(&dst.ws, keys[m:], meter, op, 64*(arity+1))
	mergeKeys(&dst.ws, keys, m, meter, op, 64*(arity+1))

	emitJoin(dst, keys, func(i int) table.Row { return in.Row(i)[:arity] }, func(i int) bool { return i >= m },
		match, bound, in, next, keep, meter, op)
}

// emitJoin is the linear scan of the truncated join over the tagged union in
// (key, tag) order. A key's low word is its record's position in the union:
// row reads the record there, fresh says whether it is new to the caller, and
// the per-invocation contribution counters are indexed by it. The output is
// padded in bulk up front — bound dummy slots per key, one zeroing in all —
// and a key's pairs fill its first slots. With a non-nil next the scan also
// retires the union: each row of in that keep selects is appended to next, in
// scan order. That selection depends on the rows, so it lives here, in the
// sanctioned scan, and not in the callers.
func emitJoin(dst *Buffer, keys []sortKey, row func(int) table.Row, fresh func(int) bool, match MatchFunc, bound int,
	in, next *Buffer, keep func(table.Row) bool, meter *mpc.Meter, op mpc.Op) {
	bound = max(bound, 1)
	dst.ws.contrib = resized(dst.ws.contrib, len(keys))
	contrib := dst.ws.contrib
	clear(contrib)

	base := dst.Len() // key k's slots are [base+k*bound, base+(k+1)*bound)
	dst.AppendDummies(bound * len(keys))
	if next != nil {
		next.Grow(len(keys))
	}
	window := dst.ws.window[:0] // union positions of the T1 records sharing the current key
	var windowKey uint64
	for k, sk := range keys {
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
			for _, li := range window {
				if emitted >= bound {
					break
				}
				if contrib[li] >= bound || contrib[src] >= bound || !(fresh(li) || fresh(src)) {
					continue
				}
				l, r := row(li), row(src)
				if match != nil && !match(Record{Row: l}, Record{Row: r}) {
					continue
				}
				dst.setJoin(base+k*bound+emitted, l, r)
				contrib[li]++
				contrib[src]++
				emitted++
			}
		}
		if next != nil && keep(in.Row(src)) {
			next.AppendFrom(in, src)
		}
	}
	dst.ws.window = window
	// The emit loop above touches each slot exactly once; charge the output
	// linear scan (predicate + conditional copy per slot).
	if meter != nil {
		meter.ChargeScan(op, bound*len(keys), 64*dst.Arity())
	}
}

func recArity(rs []Record) int {
	if len(rs) == 0 {
		return 0
	}
	return len(rs[0].Row)
}
