// Package securearray implements the secure outsourced cache of Section 2.2:
// a (notionally secret-shared) padded array sigma[1,2,3,...] that buffers the
// exhaustively padded outputs of the Transform protocol until a Shrink
// protocol synchronizes a DP-sized prefix into the materialized view.
//
// The cache supports exactly the three operations the paper describes —
// write (append a padded batch), read (oblivious sort by the isView bit,
// then cut a prefix; Figure 3), and flush (fixed-size read followed by
// recycling the remainder; Section 5.2.1). Reads always fetch real tuples
// before dummies, which is what lets Shrink discard dummy volume without
// learning which slots were real.
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
// Synchronization paths that feed the view (ReadInto, FlushInto,
// ReadAndPruneInto, DrainInto) transpose a prefix of the sorted
// cache directly onto the view's columns — one copy, no intermediate slice —
// and every real-tuple count is maintained incrementally, so Real() is O(1)
// on the serving read path.
package securearray

import (
	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
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
	// part of the snapshot (RestoreCounters).
	runs []oblivious.Run

	appends int
	reads   int
	flushes int
	maxLen  int
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
	c.appends++
	if c.buf.Len() > c.maxLen {
		c.maxLen = c.buf.Len()
	}
}

// Len returns the current number of slots (real + dummy).
func (c *Cache) Len() int { return c.buf.Len() }

// Real returns the number of real (isView) tuples currently cached, from the
// incrementally maintained counter — O(1). In the deployed system this value
// exists only as the secret-shared counter; it is exposed here for the
// simulator's bookkeeping, the serving stats path and tests.
func (c *Cache) Real() int { return c.buf.Real() }

// MaxLen returns the high-water mark of the cache length.
func (c *Cache) MaxLen() int { return c.maxLen }

// Stats returns operation counters (appends, reads, flushes).
func (c *Cache) Stats() (appends, reads, flushes int) {
	return c.appends, c.reads, c.flushes
}

// sortRealFirst obliviously sorts the cache so real tuples lead (the shared
// first phase of every read-class operation; Figure 3), merging its runs
// into one. It is charged as a full sort of the cache.
func (c *Cache) sortRealFirst() {
	oblivious.MergeRealFirst(c.buf, c.runs, c.meter, mpc.OpShrink, c.tupleBits)
}

// oneRun records the whole cache as one run, or none when it is empty. What
// a read leaves — a prefix cut and truncation of the real-first order — is
// itself real-first.
func (c *Cache) oneRun(realFirst bool) {
	c.runs = c.runs[:0]
	if c.buf.Len() > 0 {
		c.runs = append(c.runs, oblivious.Run{Len: c.buf.Len(), RealFirst: realFirst})
	}
}

func clampSize(size, n int) int {
	if size < 0 {
		return 0
	}
	if size > n {
		return n
	}
	return size
}

// ReadInto performs the secure cache read of Figure 3: obliviously sort so
// real tuples lead, cut the first size slots off as the fetched batch, and
// keep the remainder. size is clamped to [0, Len]. The caller reveals only
// size (the DP-protected cardinality). The fetched prefix is appended
// directly into the view's columns — one copy, no intermediate buffer.
func (c *Cache) ReadInto(v *View, size int) {
	c.sortRealFirst()
	size = clampSize(size, c.buf.Len())
	v.appendRange(c.buf, 0, size)
	c.buf.CutPrefix(size)
	c.oneRun(true)
	c.reads++
}

// FlushInto performs the cache-flush of Section 5.2.1: fetch exactly size
// slots off the head of the sorted cache into the view and recycle (drop)
// everything else. With a flush size chosen by dp.FlushSizeFor, the recycled
// slots are all dummies except with small probability beta. It returns the
// fetched slot count (size clamped to the cache length — the public flush
// observation) and the number of real tuples lost to recycling (0 in the
// common case; surfaced so experiments can report it).
func (c *Cache) FlushInto(v *View, size int) (fetched, lostReal int) {
	c.sortRealFirst()
	size = clampSize(size, c.buf.Len())
	v.appendRange(c.buf, 0, size)
	c.buf.CutPrefix(size)
	lostReal = c.buf.Real()
	c.buf.Reset()
	c.oneRun(true)
	c.flushes++
	return size, lostReal
}

// ReadAndPruneInto performs the view synchronization, a bounded
// deferred-data spill, and the incremental cache cap under a single
// oblivious sort. The sorted (real-first) cache splits into four
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
// All three cut points are public (size is the DP release; spill and keep
// are configuration constants), so the operation leaks nothing beyond the
// DP outputs. The combined fetch goes straight into the view arena; the
// surviving segment stays in place (a prefix cut, no reallocation). Returns
// the number of real tuples recycled.
func (c *Cache) ReadAndPruneInto(v *View, size, spill, keep int) (lostReal int) {
	c.sortRealFirst()
	size = clampSize(size, c.buf.Len())
	if spill < 0 {
		spill = 0
	}
	if size+spill > c.buf.Len() {
		spill = c.buf.Len() - size
	}
	v.appendRange(c.buf, 0, size+spill)
	c.buf.CutPrefix(size + spill)
	c.reads++
	if keep < 0 {
		keep = 0
	}
	if keep < c.buf.Len() {
		lostReal = c.buf.Truncate(keep)
		c.flushes++
	}
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
	c.reads++
}

// Buffer exposes the cache arena for the snapshot codec. Callers other than
// internal/snapshot must treat it as read-only; mutating it bypasses the
// cache's operation counters.
func (c *Cache) Buffer() *oblivious.Buffer { return c.buf }

// RestoreCounters overwrites the operation counters with checkpointed
// values; the snapshot codec calls it after reloading the arena so a
// restored cache reports the same history as one that never stopped. The
// reloaded arena is recorded as one raw run: the layout is not checkpointed,
// and the next read's full sort gives the bytes a merge would have.
func (c *Cache) RestoreCounters(appends, reads, flushes, maxLen int) {
	c.appends, c.reads, c.flushes, c.maxLen = appends, reads, flushes, maxLen
	c.oneRun(false)
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

// FlagByte returns slot i's isView bit as a 0/1 byte, the form the snapshot
// codec writes.
func (v *View) FlagByte(i int) uint8 { return uint8(v.flag[i/64] >> (63 - i%64) & 1) }

// Columns exposes the attribute columns for the snapshot codec, which writes
// them out row-major. Callers must not mutate or retain them across appends.
func (v *View) Columns() [][]int64 { return v.cols }

// Restore replaces the view's contents with the slots of the row-major rows
// and its update counter with a checkpointed value (snapshot codec use).
func (v *View) Restore(rows *oblivious.Buffer, updates int) {
	for j := 0; j < v.Arity(); j++ {
		v.cols[j] = v.cols[j][:0]
	}
	v.flag, v.n, v.real = v.flag[:0], 0, 0
	v.appendRange(rows, 0, rows.Len())
	v.updates = updates
}

// SizeBytes returns the storage footprint of the view given the per-slot
// payload width, the "materialized view size (Mb)" metric of Table 2.
func (v *View) SizeBytes(tupleBits int) int64 {
	return int64(v.Len()) * int64(tupleBits) / 8
}
