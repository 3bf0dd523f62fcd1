// Package securearray implements the secure outsourced cache of Section 2.2:
// a (notionally secret-shared) padded array sigma[1,2,3,...] that buffers the
// exhaustively padded outputs of the Transform protocol until a Shrink
// protocol synchronizes a DP-sized prefix into the materialized view.
//
// The cache supports the two operations the paper describes — write (append
// a padded batch) and read (oblivious sort by the isView bit, then cut a
// prefix; Figure 3). Section 5.2.1's flush is that read with the surviving
// tail cut to zero, so ReadAndPruneInto is the one read: its public cut
// points say how much is fetched, spilled, kept and recycled. Reads always
// fetch real tuples before dummies, which is what lets Shrink discard dummy
// volume without learning which slots were real.
//
// The cache is a row-major oblivious.Buffer arena: it is put in real-first
// order and gathered on every synchronization, and those move whole slots.
// The order is total (reals in arrival order, then dummies), so a read need
// not re-sort what is already in it: the cache remembers, in memory only, the
// public runs appended since the last read — one per batch, raw or already
// real-first — and oblivious.MergeRealFirst sorts the raw ones and merges
// them all. What a read leaves is one real-first run. Because the order does
// not depend on the layout, a restored cache forgets its runs and its first
// read re-sorts it whole, to the same bytes.
//
// The materialized view is only ever appended to and scanned, so it is a
// column store — one []int64 per attribute beside a bitset of the isView
// flags, 64 slots to a word — that a query reads with the branch-free
// oblivious.CountColumns kernel, touching only the columns it names.
// Both synchronization paths that feed the view (ReadAndPruneInto,
// DrainInto) transpose a prefix of the cache directly onto the view's
// columns — one copy, no intermediate slice — and every real-tuple count is
// maintained incrementally, so Real() is O(1) on the serving read path.
package securearray

import (
	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/snapshot"
)

// Cache is the secure outsourced cache sigma.
type Cache struct {
	buf   *oblivious.Buffer
	meter *mpc.Meter
	// tupleBits is the secret payload width per slot, fixed at construction
	// so all slots are indistinguishable.
	tupleBits int

	// runs is the public layout of buf: one run per batch appended since
	// the last read, after the real-first run that read left. It is not
	// part of the snapshot (DecodeState).
	runs []oblivious.Run
}

// New creates an empty cache for slots of the given payload arity, each
// carrying tupleBits of secret payload. The meter (may be nil) is charged
// for every oblivious operation.
func New(arity, tupleBits int, meter *mpc.Meter) *Cache {
	return &Cache{buf: oblivious.NewBuffer(arity, 0), tupleBits: tupleBits, meter: meter}
}

// Append writes an exhaustively padded batch to the tail of the cache
// (Alg. 1 line 7). The batch length is public by construction — it depends
// only on the upload size and the truncation bound. The batch is copied into
// the cache arena; the caller keeps ownership (and may reuse it).
func (c *Cache) Append(batch *oblivious.Buffer) { c.appendRun(batch, false) }

// AppendRealFirst is Append for a batch the caller already put in
// real-first order (its reals, in order, then its dummies) — a tight
// compaction's output — which the next read merges instead of sorting.
func (c *Cache) AppendRealFirst(batch *oblivious.Buffer) { c.appendRun(batch, true) }

func (c *Cache) appendRun(batch *oblivious.Buffer, realFirst bool) {
	c.buf.AppendAll(batch)
	if batch.Len() > 0 {
		c.runs = append(c.runs, oblivious.Run{Len: batch.Len(), RealFirst: realFirst})
	}
}

// Len returns the current number of slots (real + dummy).
func (c *Cache) Len() int { return c.buf.Len() }

// Real returns the number of real (isView) tuples currently cached, from the
// incrementally maintained counter — O(1). In the deployed system this value
// exists only as the secret-shared counter; it is exposed here for the
// simulator's bookkeeping, the serving stats path and tests.
func (c *Cache) Real() int { return c.buf.Real() }

// oneRun records the whole cache as one run, or none when it is empty. What
// a read leaves — a prefix cut and truncation of the real-first order — is
// itself real-first.
func (c *Cache) oneRun(realFirst bool) {
	c.runs = c.runs[:0]
	if c.buf.Len() > 0 {
		c.runs = append(c.runs, oblivious.Run{Len: c.buf.Len(), RealFirst: realFirst})
	}
}

// ReadAndPruneInto is the cache read: it performs the view synchronization,
// a bounded deferred-data spill, and the incremental cache cap under a single
// oblivious sort, charged as a full sort of the cache, which merges the
// cache's runs into one. The sorted (real-first) cache splits into four
// public-length segments:
//
//	[0:size)                the DP-sized fetch (Alg. 2:8 / Alg. 3:10)
//	[size:size+spill)       a fixed-size spill, also appended to the view —
//	                        it drains deferred real tuples left behind by
//	                        negative noise, giving the deferred-data walk a
//	                        negative drift so it stays small at any horizon
//	[... : ...+keep)        the surviving cache
//	remainder               recycled; real tuples here are counted as lost
//	                        (w.h.p. it is pure dummy volume, Theorem 4)
//
// All three cut points are public (size is the DP release or a flush size;
// spill and keep are configuration constants), so the operation leaks
// nothing beyond the DP outputs. Each is clamped to what the cache holds.
// Figure 3's plain read keeps everything (spill 0, keep >= Len); Section
// 5.2.1's flush keeps nothing (spill 0, keep 0). Its size is the constant
// core.FlushSize = 15, under the deferred data a deployment can carry, so a
// flush can recycle real rows: 786 over 20 CPDB runs of 4,000 steps
// (ROADMAP item 24 sizes the flush from a bound, or drops it). The
// combined fetch goes straight into the view arena; the recycled tail is
// truncated first, and the surviving segment then slides to the front (a
// prefix cut, no reallocation). Returns the number of real tuples recycled.
func (c *Cache) ReadAndPruneInto(v *View, size, spill, keep int) (lostReal int) {
	oblivious.MergeRealFirst(c.buf, c.runs, c.meter, mpc.OpShrink, c.tupleBits)
	size = min(max(size, 0), c.buf.Len())
	spill = min(max(spill, 0), c.buf.Len()-size)
	v.appendRange(c.buf, 0, size+spill)
	// Recycle the tail before cutting the prefix, so the cut slides only the
	// surviving segment down.
	keep = min(max(keep, 0), c.buf.Len()-size-spill)
	lostReal = c.buf.Truncate(size + spill + keep)
	c.buf.CutPrefix(size + spill)
	c.oneRun(true)
	return lostReal
}

// DrainInto moves every slot into the view without sorting. Moving the
// entire cache needs no oblivious reordering (nothing about the data is
// revealed by a full move); baselines that synchronize everything use this.
func (c *Cache) DrainInto(v *View) {
	v.appendRange(c.buf, 0, c.buf.Len())
	c.buf.Reset()
	c.oneRun(true)
}

// EncodeState writes the cache's arena (oblivious.Buffer.EncodeState). The
// runs it holds are not written.
func (c *Cache) EncodeState(e *snapshot.Encoder) { c.buf.EncodeState(e) }

// DecodeState reloads an arena written by EncodeState from a cache of the
// same arity; the meter and tuple width stay as constructed. The layout is
// not checkpointed, so the reloaded arena is one raw run, and the next
// read's full sort leaves the bytes a merge would have.
func (c *Cache) DecodeState(d *snapshot.Decoder) {
	c.buf.DecodeState(d)
	if d.Err() == nil {
		c.oneRun(false)
	}
}

// View is the materialized view object V: an append-only padded array the
// servers answer queries from. Unlike the cache it is never resorted, gathered
// or shrunk; Shrink appends DP-sized batches, so the view length itself is a
// function of the DP outputs only. That is what lets it be column-major:
//
//	cols  [][]int64  one column per attribute
//	flag  []uint64   the isView bits, slot i at bit 63-i%64 of word i/64
//
// plus the slot count n and the real-tuple counter, maintained by adding
// each slot's flag as its bit is ORed in. Bits at or past n are zero.
type View struct {
	cols    [][]int64
	flag    []uint64
	n       int
	real    int
	updates int
}

// NewView creates an empty materialized view for rows of the given arity.
func NewView(arity int) *View { return &View{cols: make([][]int64, arity)} }

// appendRange is the one synchronization: slots [lo, hi) of the row-major
// src are transposed onto the tail of the columns. The flag words the new
// slots need are appended zeroed, counted from n alone: len(v.flag) is
// (n+63)/64, but the analyzer cannot see that it is public.
func (v *View) appendRange(src *oblivious.Buffer, lo, hi int) {
	arity := v.Arity()
	v.flag = append(v.flag, make([]uint64, (v.n+hi-lo+63)/64-(v.n+63)/64)...)
	for i := lo; i < hi; i++ {
		f := src.FlagByte(i)
		v.flag[v.n/64] |= uint64(f) << (63 - v.n%64)
		v.n++
		v.real += int(f)
		for j := 0; j < arity; j++ {
			v.cols[j] = append(v.cols[j], src.At(i, j))
		}
	}
	v.updates++
}

// Update appends a synchronized batch o (Alg. 2 line 8 / Alg. 3 line 10:
// V <- V u o). The batch is copied; the caller keeps ownership.
func (v *View) Update(batch *oblivious.Buffer) { v.appendRange(batch, 0, batch.Len()) }

// Arity returns the payload attributes per slot.
func (v *View) Arity() int { return len(v.cols) }

// Len returns the number of slots in the view (real + dummy).
func (v *View) Len() int { return v.n }

// Real returns the number of real tuples from the maintained counter — O(1)
// (simulator bookkeeping and the serving stats path).
func (v *View) Real() int { return v.real }

// Count answers a counting query with one oblivious scan of the columns the
// conditions name: the number of real slots satisfying all of conds. With no
// conditions it recounts the real slots, which is how tests pin Real.
func (v *View) Count(conds []oblivious.ScanCond) int {
	return oblivious.CountColumns(v.flag, v.n, v.cols, conds)
}

// Updates returns the number of synchronizations appended so far.
func (v *View) Updates() int { return v.updates }

// EncodeState writes the view as it is held: its arity and slot count, each
// attribute column, the packed flag words — ⌈n/64⌉ of them — and the update
// counter.
func (v *View) EncodeState(e *snapshot.Encoder) {
	e.Int(len(v.cols))
	e.Int(v.n)
	for _, col := range v.cols {
		e.I64s(col)
	}
	e.U64s(v.flag)
	e.Int(v.updates)
}

// DecodeState replaces the view with one written by EncodeState from a view
// of the same arity. Every column must hold the view's n slots and the flag
// words must be the ⌈n/64⌉ a view of n slots keeps, no bit set at or past
// slot n; the real-tuple count is their popcount. Like the Decoder's own
// readers it latches its errors in d, and it loads nothing once one has.
func (v *View) DecodeState(d *snapshot.Decoder) {
	arity, n := d.Int(), d.Int()
	if d.Err() == nil && (arity != v.Arity() || n < 0) {
		d.Corrupt("view of arity %d and %d slots, restoring into arity %d", arity, n, v.Arity())
	}
	cols := make([][]int64, 0, v.Arity())
	for j := 0; j < v.Arity() && d.Err() == nil; j++ {
		col := d.I64s()
		if d.Err() == nil && len(col) != n {
			d.Corrupt("view column %d of %d slots, the view holds %d", j, len(col), n)
		}
		cols = append(cols, col)
	}
	flag := d.U64s()
	updates := d.Int()
	switch {
	case d.Err() != nil:
	case len(flag) != (n+63)/64:
		d.Corrupt("view of %d slots carries %d flag words", n, len(flag))
	case n%64 != 0 && flag[len(flag)-1]<<(n%64) != 0:
		d.Corrupt("view of %d slots flags a slot at or past its end", n)
	case updates < 0:
		d.Corrupt("view updates %d", updates)
	default:
		v.cols, v.flag, v.n, v.updates = cols, flag, n, updates
		v.real = v.Count(nil)
	}
}

// SizeBytes returns the storage footprint of the view given the per-slot
// payload width, the "materialized view size (Mb)" metric of Table 2.
func (v *View) SizeBytes(tupleBits int) int64 {
	return int64(v.Len()) * int64(tupleBits) / 8
}
