package core

import (
	"incshrink/internal/oblivious"
	"incshrink/internal/snapshot"
	"incshrink/internal/workload"
)

// Stream sides, indexing the per-stream arrays of Framework and uploadBlock.
const (
	left  = 0
	right = 1
)

// windowEntry is one outsourced record, held by value: the engine copies a
// record on arrival and never looks at the caller's memory again. A record
// has no identifier: it is its row, and what the lifecycle needs to tell
// records apart — arrival block, remaining budget, new or carried — is its
// position in the table.
type windowEntry struct {
	row       [workload.StreamArity]int64
	arrived   int // step of the upload block that carried the record
	remaining int // contribution budget left; 0 on an unlimited stream
}

// appendArrivals copies the caller's records onto dst; arrival step and
// budget are stamped by admit.
func appendArrivals(dst []windowEntry, recs []oblivious.Record) []windowEntry {
	for _, r := range recs {
		dst = append(dst, windowEntry{row: [workload.StreamArity]int64(r.Row)})
	}
	return dst
}

// window is one input stream's record table, and the whole of the
// "contribution over time" lifecycle of KI-3 / Section 5.1: every outsourced
// record is assigned a total budget b on upload; each time it is input to
// Transform it is charged the truncation bound omega, whether or not it
// generated view entries; a record whose budget or temporal join window has
// run out is removed and never enters Transform again. That makes the
// lifetime transformation q-stable with q = b, hence the total privacy loss
// per logical update b * (eps/b) = eps (Theorems 3 and 7). An entry exists
// exactly while its record is registered, active and holding budget.
//
// Entries are kept oldest block first and, within a block, in reverse upload
// order, so admission is an append, retirement a forward compaction, and
// Transform reads the table backwards: newest block first, each block in
// upload order.
type window struct {
	total int // budget b per record; <= 0 is unlimited (a public relation)
	block int // public upload block size; 0 leaves blocks unpadded (public)
	// cap is the public size the carried part of the Transform input is
	// padded to: the block size times the invocations a record survives
	// after its first. retire holds the table to it. 0 for a public relation,
	// whose window is neither padded nor bounded.
	cap     int
	entries []windowEntry
}

// admit appends one upload block: arrivals are stamped with the block's step
// and their full budget. It returns the block's span of the table.
func (w *window) admit(arrivals []windowEntry, t int) (lo, hi int) {
	lo = len(w.entries)
	for i := len(arrivals) - 1; i >= 0; i-- {
		e := arrivals[i]
		e.arrived, e.remaining = t, max(w.total, 0)
		w.entries = append(w.entries, e)
	}
	return lo, len(w.entries)
}

// appendRecords appends entries[lo:hi] to dst, newest first, as join input
// whose rows view the table (valid until the next admit or retire).
func (w *window) appendRecords(dst []oblivious.Record, lo, hi int) []oblivious.Record {
	for i := hi - 1; i >= lo; i-- {
		e := &w.entries[i]
		dst = append(dst, oblivious.Record{Row: e.row[:]})
	}
	return dst
}

// retire ends a segment: every record is charged omega for each of the
// segment's blocks from its arrival onward and must still be inside the
// temporal window at each of those block times — the consume-then-check
// sequence of one invocation per block, so budgets and death steps do not
// depend on how blocks were grouped into segments. Survivors are compacted
// in place and held to the cap newest: the carried part of the next
// Transform input is padded to exactly that public size.
func (w *window) retire(blocks []uploadBlock, omega int, within int64) {
	kept := w.entries[:0]
	for _, e := range w.entries {
		alive := true
		for bi := 0; alive && bi < len(blocks); bi++ {
			t := blocks[bi].t
			if t < e.arrived {
				continue
			}
			if w.total > 0 {
				e.remaining -= omega
				alive = e.remaining > 0
			}
			alive = alive && int64(t-e.arrived) <= within
		}
		if alive {
			kept = append(kept, e)
		}
	}
	if over := len(kept) - w.cap; w.cap > 0 && over > 0 {
		kept = kept[:copy(kept, kept[over:])]
	}
	w.entries = kept
}

// encodeEntries writes a record list; rows are length-prefixed so a decoder
// can refuse a foreign arity.
func encodeEntries(enc *snapshot.Encoder, es []windowEntry) {
	enc.U32(uint32(len(es)))
	for i := range es {
		enc.I64s(es[i].row[:])
		enc.Int(es[i].arrived)
		enc.Int(es[i].remaining)
	}
}

// decodeEntries reads a record list into dst. It stops at the first error, so
// a forged length costs only the bytes actually present.
func decodeEntries(dec *snapshot.Decoder, dst []windowEntry) []windowEntry {
	for n := dec.Len(); n > 0 && dec.Err() == nil; n-- {
		var e windowEntry
		row := dec.I64s()
		e.arrived, e.remaining = dec.Int(), dec.Int()
		if dec.Err() == nil && len(row) != workload.StreamArity {
			dec.Corrupt("input record with %d attributes, want %d", len(row), workload.StreamArity)
		}
		copy(e.row[:], row)
		dst = append(dst, e)
	}
	return dst
}

// decode reloads the table written by encodeEntries and checks everything
// the step loop relies on: the public cap, arrival no later than the engine
// clock, and a budget the record could actually hold.
func (w *window) decode(dec *snapshot.Decoder, now int) {
	w.entries = decodeEntries(dec, w.entries[:0])
	if dec.Err() != nil {
		return
	}
	if w.cap > 0 && len(w.entries) > w.cap {
		dec.Corrupt("window of %d records exceeds the public cap %d", len(w.entries), w.cap)
		return
	}
	for i, e := range w.entries {
		switch {
		case e.arrived > now:
			dec.Corrupt("record %d arrived at step %d, after the engine clock %d", i, e.arrived, now)
		case w.total > 0 && (e.remaining <= 0 || e.remaining > w.total),
			w.total <= 0 && e.remaining != 0:
			dec.Corrupt("record %d holds remaining budget %d of total %d", i, e.remaining, w.total)
		}
	}
}
