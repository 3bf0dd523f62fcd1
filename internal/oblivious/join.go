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
// key, tag and position straight back out of it; intermediates live in
// dst's workspace, so a call on a reused dst allocates nothing.
//
// This is the from-scratch form — sort everything, then scan — and the
// reference for MergeJoinInto, which the engine runs. fresh = (new1, new2)
// says the first new1 records of t1 and the first new2 of t2 are new since
// the caller's last invocation, and only pairs with a new side are emitted;
// without it every record is new. Unlike the engine's operators it prices
// itself, to meter (which may be nil) under op: one sort of the union at the
// wider side plus the key, then the emit scan at full output width. The
// signature, meter included, stays until cmd/benchmark's probes, which read
// that charge, are thawed (ROADMAP item 1).
func TruncatedSortMergeJoinInto(dst *Buffer, t1, t2 []Record, key1, key2 int, match MatchFunc, bound int, meter *mpc.Meter, op mpc.Op, fresh ...int) {
	new1, new2 := len(t1), len(t2)
	if len(fresh) == 2 {
		new1, new2 = fresh[0], fresh[1]
	}

	// The tagged union as sort keys: T1 rows tag 0, T2 rows tag 1, the low
	// word holding the row's index in its own input.
	dst.ws.keys = resized(dst.ws.keys, len(t1)+len(t2))
	keys := dst.ws.keys
	for i, r := range t1 {
		keys[i] = sortKey{k: uint64(r.Row[key1]) ^ signBit, w: uint64(i)}
	}
	for i, r := range t2 {
		keys[len(t1)+i] = sortKey{k: uint64(r.Row[key2]) ^ signBit, w: 1<<32 | uint64(i)}
	}

	sortKeys(&dst.ws, keys)

	recs := [2][]Record{t1, t2}
	emitJoin(dst, keys, joinSides{
		left:  len(t1),
		fresh: [2][2]int{{0, new1}, {0, new2}},
		row:   func(tag uint64, i int) table.Row { return recs[tag][i].Row },
	}, match, bound, nil, [2]int{})
	if meter != nil {
		meter.ChargeSort(op, len(keys), 64*(max(recArity(t1), recArity(t2))+1))
		meter.ChargeScan(op, max(bound, 1)*len(keys), 64*dst.Arity())
	}
}

// Union is the tagged union of a join's two inputs for a caller that joins it
// again and again (MergeJoinInto): sort once, merge thereafter. Rows stay
// where they arrived — Side[s] holds stream s's rows in arrival order, from
// Append until the prefix they lie in lapses — and what is kept in join
// order is only the key column: one packed sort key per row, the row's join
// key over tag<<32 | its position on its side. The column holds the carried
// rows' keys in (key, tag) order, then the keys of the rows appended since,
// in append order; the rows a join is told are new are those last ones. Which
// row a key names is secret; how many rows each side holds and how many of
// them are new is public.
type Union struct {
	Side [2]*Buffer
	keys []sortKey // the carried rows' keys in (key, tag) order, then the new rows' in append order
	back []sortKey // the keys that outlive a join, which emitJoin retires into; swapped with keys
	key  int       // the join-key column
}

// NewUnion returns an empty union of rows of the given arity, joined on
// column key.
func NewUnion(arity, key int) *Union {
	return &Union{Side: [2]*Buffer{NewBuffer(arity, 0), NewBuffer(arity, 0)}, key: key}
}

// Len returns the number of rows, both sides together.
func (u *Union) Len() int { return len(u.keys) }

// Append appends a copy of row to side s and its key behind the union's.
func (u *Union) Append(s int, row table.Row) {
	u.keys = append(u.keys, sortKey{k: uint64(row[u.key]) ^ signBit, w: uint64(s)<<32 | uint64(u.Side[s].Len())})
	u.Side[s].AppendRow(row)
}

// AppendKey appends the key of row i of side s behind the union's — for a
// caller that placed the rows itself (a restore) and appends their keys in
// the (key, tag) order it checked.
func (u *Union) AppendKey(s, i int) {
	u.keys = append(u.keys, sortKey{k: uint64(u.Side[s].At(i, u.key)) ^ signBit, w: uint64(s)<<32 | uint64(i)})
}

// Key returns key j's join key and the side and position of the row it names.
func (u *Union) Key(j int) (key int64, s, i int) {
	w := u.keys[j].w
	return int64(u.keys[j].k ^ signBit), int(w >> 32), int(uint32(w))
}

// Reset empties the union, keeping its storage for reuse.
func (u *Union) Reset() {
	u.Side[0].Reset()
	u.Side[1].Reset()
	u.keys = u.keys[:0]
}

// MergeJoinInto is the join the engine runs over the union it keeps: the
// last fresh[s] rows of each side are new, and their keys follow the joined
// ones. Only the new keys are sorted, one merge places them among the
// joined, and the from-scratch join's linear scan emits every pair with a
// new side: bound*u.Len() slots appended to dst, behind whatever it already
// holds. The same scan retires the union: cut[s] is the public length of
// the prefix of side s that lapses, a key stays iff its row lies behind that
// prefix and is rebased by it — the order-preserving compaction of the keys
// — and then each side cuts its prefix. Rows are read through their keys and
// never move. The caller prices all of it.
func MergeJoinInto(dst *Buffer, u *Union, fresh, cut [2]int, match MatchFunc, bound int) {
	arity := dst.Arity() / 2
	keys := u.keys
	m := len(keys) - fresh[0] - fresh[1]
	sortKeys(&dst.ws, keys[m:])
	mergeKeys(&dst.ws, keys, m, len(keys))

	n := [2]int{u.Side[0].Len(), u.Side[1].Len()}
	u.back = resized(u.back, len(keys))
	emitJoin(dst, keys, joinSides{
		left:  n[0],
		fresh: [2][2]int{{n[0] - fresh[0], n[0]}, {n[1] - fresh[1], n[1]}},
		row:   func(tag uint64, i int) table.Row { return u.Side[tag].Row(i)[:arity] },
	}, match, bound, u.back, cut)
	u.keys, u.back = u.back[:n[0]-cut[0]+n[1]-cut[1]], keys
	for s, side := range u.Side {
		side.CutPrefix(cut[s])
	}
}

// joinSides is the tagged union as emitJoin reads it. A key's low word is
// its record's position on the side its tag names; the left side holds
// `left` records, side s's records at positions [fresh[s][0], fresh[s][1])
// are new to the caller, and row reads a record.
type joinSides struct {
	left  int
	fresh [2][2]int
	row   func(tag uint64, i int) table.Row
}

// isNew reports whether record i of side s is new to the caller.
func (in *joinSides) isNew(s uint64, i int) bool {
	return in.fresh[s][0] <= i && i < in.fresh[s][1]
}

// emitJoin is the linear scan of the truncated join over the tagged union in
// (key, tag) order. The per-invocation contribution counters are indexed per
// side: the left side's, then the right's. The output is padded in bulk up
// front — bound dummy slots per key, one zeroing in all — and a key's pairs
// fill its first slots. With a non-nil next the scan also retires the keys:
// a key whose position on its side is at least that side's cut is written
// to next, rebased by the cut, in scan order, and the others are
// overwritten — a select on the keys, so it lives here, in the sanctioned
// scan, and not in the callers.
func emitJoin(dst *Buffer, keys []sortKey, in joinSides, match MatchFunc, bound int, next []sortKey, cut [2]int) {
	bound = max(bound, 1)
	dst.ws.contrib = resized(dst.ws.contrib, len(keys))
	clear(dst.ws.contrib)
	contrib := [2][]int{dst.ws.contrib[:in.left], dst.ws.contrib[in.left:]}

	base := dst.Len() // key k's slots are [base+k*bound, base+(k+1)*bound)
	dst.AppendDummies(bound * len(keys))
	window := dst.ws.window[:0] // positions of the T1 records sharing the current key
	var windowKey uint64
	kept := 0
	for k, sk := range keys {
		key, tag, pos := sk.k, sk.w>>32, int(uint32(sk.w))
		// A new key group resets the T1 window; the scan only ever needs the
		// current group because T1 sorts before T2 within a key.
		if key != windowKey {
			window = window[:0]
			windowKey = key
		}
		emitted := 0
		if tag == 0 {
			window = append(window, pos)
		} else {
			fresh := in.isNew(1, pos)
			for _, li := range window {
				if emitted >= bound {
					break
				}
				if contrib[0][li] >= bound || contrib[1][pos] >= bound || !(fresh || in.isNew(0, li)) {
					continue
				}
				l, r := in.row(0, li), in.row(1, pos)
				if match != nil && !match(Record{Row: l}, Record{Row: r}) {
					continue
				}
				dst.setJoin(base+k*bound+emitted, l, r)
				contrib[0][li]++
				contrib[1][pos]++
				emitted++
			}
		}
		if next != nil {
			c := uint64(cut[tag])
			next[kept] = sortKey{k: key, w: sk.w - c}
			kept += int(boolWord(uint64(pos) >= c))
		}
	}
	dst.ws.window = window
}

func recArity(rs []Record) int {
	if len(rs) == 0 {
		return 0
	}
	return len(rs[0].Row)
}
