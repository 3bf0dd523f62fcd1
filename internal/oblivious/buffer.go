package oblivious

import (
	"slices"

	"incshrink/internal/mpc"
	"incshrink/internal/snapshot"
	"incshrink/internal/table"
)

// Buffer is a padded secure array — view tuples and dummies, notionally
// secret-shared — stored as parallel columns over one flat payload arena:
//
//	payload  table.Flat  n rows x arity attributes, one contiguous []int64
//	flag     []bool      the isView bit of Algorithm 1 per slot
//
// plus an incrementally maintained count of real slots, so Real() is O(1)
// on every read path. A slot is its row and its flag and nothing else: which
// input records produced a join entry is not recorded, because nothing
// downstream of Transform asks (contribution budgets are charged per record
// inside Transform, by position in the input window). Every oblivious
// operator that reorders or gathers (sort, compaction, the truncated join)
// works on buffers; the append-only materialized view is scanned column-major
// instead (CountColumns). The operators that mutate a buffer keep their
// intermediates in its workspace (scratch), so a buffer its owner reuses
// runs them off the allocator.
type Buffer struct {
	pay  table.Flat
	flag []bool
	real int
	ws   scratch
}

// NewBuffer creates an empty buffer for rows of the given arity with
// capacity for rowCap rows pre-reserved.
func NewBuffer(arity, rowCap int) *Buffer {
	return &Buffer{pay: *table.NewFlat(arity, rowCap), flag: make([]bool, 0, rowCap)}
}

// Arity returns the payload attributes per slot.
func (b *Buffer) Arity() int { return b.pay.Arity() }

// Len returns the number of slots (real + dummy).
func (b *Buffer) Len() int { return b.pay.Rows() }

// Real returns the number of real (isView) slots. The count is maintained
// incrementally by every mutation, so this is O(1) — the secret-shared
// cardinality counter of Algorithm 1, kept exact at all times.
func (b *Buffer) Real() int { return b.real }

// Payload exposes the flat payload arena.
func (b *Buffer) Payload() *table.Flat { return &b.pay }

// Row returns slot i's payload as a view into the arena (no copy); it is
// invalidated by growing appends.
func (b *Buffer) Row(i int) table.Row { return b.pay.Row(i) }

// At returns payload attribute j of slot i.
func (b *Buffer) At(i, j int) int64 { return b.pay.At(i, j) }

// IsReal reports slot i's isView bit.
func (b *Buffer) IsReal(i int) bool { return b.flag[i] }

// FlagByte returns slot i's isView bit as a 0/1 byte, the form the
// column-major view shifts into its flag bitset and sums.
func (b *Buffer) FlagByte(i int) uint8 { return uint8(boolWord(b.flag[i])) }

// AppendRow appends a real slot carrying a copy of row.
func (b *Buffer) AppendRow(row table.Row) {
	b.pay.AppendRow(row)
	b.flag = append(b.flag, true)
	b.real++
}

// setJoin makes dummy slot i the real join entry l||r — the join's fill of
// its padded output, with no temporary row materialized. len(l)+len(r) must
// be the buffer's arity.
func (b *Buffer) setJoin(i int, l, r table.Row) {
	if len(l)+len(r) != b.Arity() {
		panic("oblivious: join entry arity differs from the buffer's")
	}
	row := b.pay.Row(i)
	copy(row[copy(row, l):], r)
	b.flag[i] = true
	b.real++
}

// AppendSlot appends one fully specified slot — payload row and isView bit —
// maintaining the real count. The two trailing arguments are ignored: they
// were the slot's source-record IDs, and the signature stays only because
// cmd/benchmark's probes, frozen for non-benchmark PRs, still pass them.
func (b *Buffer) AppendSlot(row table.Row, real bool, _, _ int64) {
	b.pay.AppendRow(row)
	b.flag = append(b.flag, real)
	if real {
		b.real++
	}
}

// Flags exposes the isView column for bulk readers. Callers must not mutate
// or retain it across appends.
func (b *Buffer) Flags() []bool { return b.flag }

// AppendDummies appends n dummy slots (zero payload, isView false) with one
// zeroing of payload and flags — the padding of the join's output and of a
// compaction's tail. In the deployed system dummy payloads are
// indistinguishable random shares. n <= 0 appends nothing.
func (b *Buffer) AppendDummies(n int) {
	if n <= 0 {
		return
	}
	b.pay.AppendZeroRows(n)
	lo := len(b.flag)
	b.flag = slices.Grow(b.flag, n)[:lo+n]
	clear(b.flag[lo:])
}

// AppendFrom appends a copy of slot i of src (equal arity required).
func (b *Buffer) AppendFrom(src *Buffer, i int) {
	b.pay.AppendFrom(&src.pay, i)
	b.flag = append(b.flag, src.flag[i])
	b.real += int(boolWord(src.flag[i]))
}

// AppendRange appends copies of src's slots [lo, hi) with one bulk copy per
// column — the cache-append and cache-to-view move.
func (b *Buffer) AppendRange(src *Buffer, lo, hi int) {
	if hi <= lo {
		return
	}
	b.pay.AppendRows(&src.pay, lo, hi)
	b.flag = append(b.flag, src.flag[lo:hi]...)
	for _, fl := range src.flag[lo:hi] {
		b.real += int(boolWord(fl))
	}
}

// AppendAll appends every slot of src.
func (b *Buffer) AppendAll(src *Buffer) { b.AppendRange(src, 0, src.Len()) }

// Grow reserves capacity for extra more slots so subsequent appends neither
// allocate nor invalidate row views.
func (b *Buffer) Grow(extra int) {
	b.pay.Grow(extra)
	if need := len(b.flag) + extra; cap(b.flag) < need {
		nf := make([]bool, len(b.flag), need)
		copy(nf, b.flag)
		b.flag = nf
	}
}

// CutPrefix removes the first n slots in place (the remainder slides to the
// front of the arena — no allocation), returning the number of real slots
// removed.
func (b *Buffer) CutPrefix(n int) (removedReal int) {
	if n <= 0 {
		return 0
	}
	for i := 0; i < n; i++ {
		removedReal += int(boolWord(b.flag[i]))
	}
	b.pay.CutPrefix(n)
	copy(b.flag, b.flag[n:])
	b.flag = b.flag[:len(b.flag)-n]
	b.real -= removedReal
	return removedReal
}

// Reset empties the buffer, keeping its storage for reuse.
func (b *Buffer) Reset() {
	b.pay.Reset()
	b.flag = b.flag[:0]
	b.real = 0
}

// EncodeState writes the buffer as it is held: its arity and slot count,
// the row-major payload arena and the flag column — 8·arity + 1 bytes per
// slot.
func (b *Buffer) EncodeState(e *snapshot.Encoder) {
	e.Int(b.Arity())
	e.Int(b.Len())
	e.I64s(b.pay.Data())
	e.Bools(b.flag)
}

// DecodeState replaces the buffer's slots with ones written by EncodeState
// from a buffer of the same arity. The arity and the framing are checked
// before anything is loaded, and the real-slot counter is rebuilt from the
// flag column. Like the Decoder's own readers it latches its errors in d.
func (b *Buffer) DecodeState(d *snapshot.Decoder) {
	arity, n := d.Int(), d.Int()
	payload := d.I64s()
	flags := d.Bools()
	switch {
	case d.Err() != nil:
	case arity != b.Arity():
		d.Corrupt("buffer arity %d, restoring into arity %d", arity, b.Arity())
	case len(flags) != n || len(payload) != n*arity:
		d.Corrupt("buffer of %d slots carries %d flags, %d attributes", n, len(flags), len(payload))
	default:
		b.Reset()
		b.AppendDummies(n)
		copy(b.pay.Data(), payload)
		copy(b.flag, flags)
		for _, fl := range flags {
			b.real += int(boolWord(fl))
		}
	}
}

// ScanReal recounts the real slots with a full scan. It exists to pin the
// maintained counter in tests (counter == scan); production paths use the
// O(1) Real.
func (b *Buffer) ScanReal() int {
	n := 0
	for _, f := range b.flag {
		n += int(boolWord(f))
	}
	return n
}

// Run is one public segment of a buffer: Len slots, already in real-first
// order (reals, then dummies, each in position order) when RealFirst is set,
// in no known order otherwise. Where the runs lie and which are real-first
// is public; which slots are real is not.
type Run struct {
	Len       int
	RealFirst bool
}

// MergeRealFirst leaves b, laid out as runs (their lengths summing to
// b.Len()), holding the first keep slots (keep clamped to [0, b.Len()]) of
// its real-first order — the Shrink ordering, under which a prefix cut of the
// sorted cache always fetches real data first (Figure 3) — and returns the
// number of compare-exchanges it executed. The order is total — key
// 1-isView, tie-break the slot's position — so the result is a prefix of the
// unique stable partition, reals in position order then dummies, whatever the
// layout. A slot at index keep or later of a real-first run has keep slots
// ahead of it in that order, so only each run's first keep keys are kept: a
// raw run's keys are sorted by Batcher's network and then cut, a real-first
// run's are cut as extracted, adjacent runs are merged pairwise through its
// last phase (mergeKeys) and cut back to keep until one is left, and one
// gather of the kept keys applies the selection and recounts the real slots.
// A buffer that is one real-first run no longer than keep is left alone.
// Every comparator position is a function of the layout and keep alone. Its
// caller is priced the full sort, mpc.SortCompareExchanges(b.Len()), which
// the executed count never exceeds. Steady state allocates nothing: the keys,
// run ends and gather arena are b's own workspace.
func MergeRealFirst(b *Buffer, runs []Run, keep int) (executed int) {
	n, covered := b.Len(), 0
	for _, r := range runs {
		covered += r.Len
	}
	if covered != n {
		panic("oblivious: runs do not cover the buffer")
	}
	keep = min(max(keep, 0), n)
	if keep == n && (n <= 1 || len(runs) == 1 && runs[0].RealFirst) {
		return 0
	}
	b.ws.keys = resized(b.ws.keys, n)
	keys := b.ws.keys
	ends, lo, pos := b.ws.ends[:0], 0, 0
	for _, r := range runs {
		m := r.Len
		if r.RealFirst {
			m = min(m, keep)
		}
		for i := range m {
			keys[lo+i] = sortKey{k: 1 - boolWord(b.flag[pos+i]), w: uint64(pos+i)<<32 | uint64(pos+i)}
		}
		if !r.RealFirst {
			executed += sortKeys(&b.ws, keys[lo:lo+m])
		}
		pos += r.Len
		if m = min(m, keep); m > 0 {
			lo += m
			ends = append(ends, lo)
		}
	}
	for len(ends) > 1 {
		lo, out, kept := 0, 0, 0
		for j := 0; j < len(ends); j += 2 {
			end := ends[min(j+1, len(ends)-1)]
			if j+1 < len(ends) {
				executed += mergeKeys(&b.ws, keys[lo:end], ends[j]-lo)
			}
			m := min(end-lo, keep)
			copy(keys[out:out+m], keys[lo:lo+m])
			out += m
			ends[kept], kept, lo = out, kept+1, end
		}
		ends = ends[:kept]
	}
	b.ws.ends = ends
	b.gather(keys[:keep])
	return executed
}

// gather makes slot i of the buffer the old slot whose index sorted key i
// carries, for each of keys and no more: one gather into the workspace's
// arena, then a swap of the two storages and of the real count the gather
// kept.
func (b *Buffer) gather(keys []sortKey) {
	if b.ws.gather == nil {
		b.ws.gather = NewBuffer(b.Arity(), 0)
	}
	s := b.ws.gather
	s.Reset()
	s.Grow(len(keys))
	for _, key := range keys {
		s.AppendFrom(b, int(uint32(key.w)))
	}
	b.pay, s.pay = s.pay, b.pay
	b.flag, s.flag = s.flag, b.flag
	b.real, s.real = s.real, b.real
}

// TightCompactInto obliviously packs the real slots of src into dst up to
// cap slots (padding dst with dummies to exactly cap), appending real slots
// beyond cap to overflow — possible only if the caller's bound was not a
// true upper bound — or dropping them when overflow is nil. Transform passes
// nil: its delta cap is a truncation, like omega, and it counts the reals
// dst did not take as lost. dst and overflow must have src's arity; both
// are appended to, not reset. It models an order-insensitive oblivious
// compaction network (linear passes of bit-controlled moves rather than a
// full sort), which its caller prices as two linear passes at scan rate —
// mark+prefix-sum and controlled move — which is what lets Transform
// tighten its exhaustively padded join output to the public
// maximum-new-entries bound before caching without inflating its cost
// profile. That delta compaction and cmd/benchmark's operator probe are its
// callers; the carry's order-preserving retirement runs in the join's scan
// instead (MergeJoinInto). The tail is padded with one bulk append. The
// three trailing arguments, once its meter, are ignored: cmd/benchmark's
// probes, frozen until ROADMAP item 1, still pass them.
func TightCompactInto(src *Buffer, cap int, dst, overflow *Buffer, _ *mpc.Meter, _ mpc.Op, _ int) {
	if cap < 0 {
		cap = 0
	}
	packed := 0
	dst.Grow(cap)
	for i := 0; i < src.Len(); i++ {
		if !src.flag[i] {
			continue
		}
		if packed < cap {
			dst.AppendFrom(src, i)
			packed++
		} else if overflow != nil {
			overflow.AppendFrom(src, i)
		}
	}
	dst.AppendDummies(cap - packed)
}

// CountBuffer counts the real slots of a row-major padded array that satisfy
// pred: one scan that evaluates the predicate on every slot, real or dummy,
// and adds the AND of the two bits, so every payload row is read whatever
// the flags say. The engine's queries run CountColumns over the column-major
// view instead; this form remains for cmd/benchmark's scan probe.
func CountBuffer(b *Buffer, pred table.Predicate, meter *mpc.Meter, op mpc.Op) int {
	if meter != nil {
		meter.ChargeScan(op, b.Len(), 64*b.Arity())
	}
	n := 0
	for i := 0; i < b.Len(); i++ {
		n += int(boolWord(b.flag[i]) & boolWord(pred(b.Row(i))))
	}
	return n
}
