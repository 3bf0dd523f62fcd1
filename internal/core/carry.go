package core

import (
	"slices"

	"incshrink/internal/snapshot"
	"incshrink/internal/table"
	"incshrink/internal/workload"
)

// Stream sides: the tag column of a carry row, and the index of the
// per-stream arrays of Framework and uploadBlock.
const (
	left  = 0
	right = 1
)

// The carry is the Transform's standing input: the tagged union of both
// streams' live records and of the pads their upload blocks were filled to,
// one row each, held in join order — sorted on (key, tag) — from one
// invocation to the next, so an invocation sorts only its new blocks and
// merges them in (oblivious.MergeJoinInto). A row is the record, its stream
// tag and the step of the upload block that carried it; a record has no
// identifier, and new-or-carried is its position. Between invocations the
// carry sits at its public cap: each padded stream holds exactly `keep` whole
// blocks, pads included (a pad is minted once, with its block, and leaves
// with it), from step 0 on (prefill). A public relation's records enter
// unpadded and are bounded by the join window alone.
const (
	colTag     = workload.StreamArity
	colArrived = workload.StreamArity + 1
	carryArity = workload.StreamArity + 2
	// carryBits is the secret payload width the carry's sort, merge and
	// compaction move: the record plus its (key, tag) sort column.
	carryBits = 64 * (workload.StreamArity + 1)
)

// liveBlock is one upload block whose rows are in the carry; all of it is
// public, the budget too, which every record of a block spends alike.
type liveBlock struct {
	t         int // step of the upload
	remaining int // contribution budget each of its records has left; 0 on an unlimited stream
	n         int // rows it holds in the carry
}

// stream is one input stream's ledger of live blocks, oldest first, and the
// whole of the "contribution over time" lifecycle of KI-3 / Section 5.1:
// every outsourced record is assigned a total budget b on upload; each time
// it is input to Transform it is charged the truncation bound omega, whether
// or not it generated view entries; a record whose budget or temporal join
// window has run out is removed and never enters Transform again. That makes
// the lifetime transformation q-stable with q = b, hence the total privacy
// loss per logical update b * (eps/b) = eps (Theorems 3 and 7). Liveness is
// per block: its records arrive, are charged and lapse together.
type stream struct {
	total int // budget b per record; <= 0 is unlimited (a public relation)
	block int // public upload block size; 0 leaves blocks unpadded (public)
	keep  int // blocks the carry holds after a segment; < 0 is unbounded (public)
	live  []liveBlock
}

// rows is the stream's share of the carry.
func (s *stream) rows() (n int) {
	for _, b := range s.live {
		n += b.n
	}
	return n
}

// retire ends a segment on the ledger: every live block is charged omega for
// each of the segment's blocks from its own upload onward and must still be
// inside the temporal window at each of those block times — one invocation's
// consume-then-check per block, so budgets and death steps do not depend on
// how blocks were grouped into segments. Older blocks lapse first, and the
// survivors are held to the newest `keep`; it returns their first upload step.
func (s *stream) retire(blocks []uploadBlock, omega int, within int64) (from int) {
	kept := s.live[:0]
	for _, b := range s.live {
		alive := true
		for bi := 0; alive && bi < len(blocks); bi++ {
			t := blocks[bi].t
			if t < b.t {
				continue
			}
			if s.total > 0 {
				b.remaining -= omega
				alive = b.remaining > 0
			}
			alive = alive && int64(t-b.t) <= within
		}
		if alive {
			kept = append(kept, b)
		}
	}
	if over := len(kept) - s.keep; s.keep >= 0 && over > 0 {
		kept = kept[:copy(kept, kept[over:])]
	}
	s.live = kept
	if len(kept) == 0 {
		return blocks[len(blocks)-1].t + 1
	}
	return kept[0].t
}

// prefill starts the carry at its public cap by admitting, and charging, the
// uploads of the `keep` periods before step 0 as blocks of nothing but pads:
// they hold the budget such blocks would have left and retire on schedule.
// Pad keys ascend as they are minted, so the rows are already in join order.
func (f *Framework) prefill() {
	for j := f.str[left].keep; j >= 1; j-- {
		b := []uploadBlock{f.admit(f.wl.UploadEvery - 1 - j*f.wl.UploadEvery)}
		for s := range f.str {
			f.str[s].retire(b, f.cfg.Omega, f.wl.Within)
		}
	}
}

// admit appends one upload block behind the carry: each stream's pending
// arrivals in upload order, then pads up to the public block size, every row
// stamped with its stream and the block's step. A pad has a fresh
// never-matching key: pad keys ascend from the bottom of the negative half of
// the key domain, reserved for them (incshrink.DB rejects negative client keys).
func (f *Framework) admit(t int) uploadBlock {
	b := uploadBlock{t: t}
	for s := range f.str {
		st, arrived := &f.str[s], f.pending[s]
		b.n[s] = max(arrived.Len(), st.block)
		f.carry.Grow(b.n[s])
		for i := range arrived.Len() {
			a := arrived.Row(i)
			f.carry.AppendRow(table.Row{a[workload.ColKey], a[workload.ColTime], int64(s), int64(t)})
		}
		for range b.n[s] - arrived.Len() {
			f.carry.AppendRow(table.Row{f.dummyID, int64(t), int64(s), int64(t)})
			f.dummyID++
		}
		arrived.Reset()
		st.live = append(st.live, liveBlock{t: t, remaining: max(st.total, 0), n: b.n[s]})
	}
	return b
}

// encodeLedger writes a stream's live blocks.
func encodeLedger(enc *snapshot.Encoder, live []liveBlock) {
	enc.U32(uint32(len(live)))
	for _, b := range live {
		enc.Int(b.t)
		enc.Int(b.remaining)
		enc.Int(b.n)
	}
}

// decode reloads the ledger written by encodeLedger and checks what the step
// loop relies on: blocks in upload order and no later than the engine clock,
// a budget a block could hold, and on a padded stream exactly `keep` blocks of
// at least the public size. It stops at the first error, so a forged length
// costs only the bytes present.
func (s *stream) decode(dec *snapshot.Decoder, now int) {
	s.live = s.live[:0]
	for n := dec.Len(); n > 0 && dec.Err() == nil; n-- {
		b := liveBlock{t: dec.Int(), remaining: dec.Int(), n: dec.Int()}
		switch last := len(s.live) - 1; {
		case dec.Err() != nil:
		case b.t > now || (last >= 0 && b.t <= s.live[last].t):
			dec.Corrupt("block uploaded at step %d, engine clock %d, out of order", b.t, now)
		case s.total > 0 && (b.remaining <= 0 || b.remaining > s.total), s.total <= 0 && b.remaining != 0:
			dec.Corrupt("block holds remaining budget %d of total %d", b.remaining, s.total)
		case b.n < s.block:
			dec.Corrupt("block of %d rows, public block size %d", b.n, s.block)
		}
		s.live = append(s.live, b)
	}
	if dec.Err() == nil && s.keep >= 0 && len(s.live) != s.keep {
		dec.Corrupt("ledger of %d blocks, the public cap is %d", len(s.live), s.keep)
	}
}

// decodeCarry reloads the carry and holds it to the two decoded ledgers: its
// length is their public total, every live block owns exactly its rows — so
// no row names a block that is not live — none arrived after the engine
// clock, and the rows are in (key, tag) order, without which every later merge
// would be silently wrong. The raw columns are checked before they are loaded.
func (f *Framework) decodeCarry(dec *snapshot.Decoder) error {
	payload, flags, err := snapshot.DecodeBufferColumns(dec, carryArity)
	if err != nil {
		return err
	}
	if want := f.str[left].rows() + f.str[right].rows(); len(flags) != want || slices.Contains(flags, false) {
		dec.Corrupt("carry of %d rows, the ledgers hold %d, or a row is flagged dead", len(flags), want)
	}
	owned := map[[2]int64]int{} // rows per (stream, upload step)
	for i := 0; i < len(flags) && dec.Err() == nil; i++ {
		r := payload[i*carryArity:][:carryArity]
		switch {
		case (r[colTag] != left && r[colTag] != right) || r[colArrived] > int64(f.now):
			dec.Corrupt("carry row %d of stream %d arrived at step %d, engine clock %d", i, r[colTag], r[colArrived], f.now)
		case i > 0 && !carryOrdered(payload[(i-1)*carryArity:], r):
			dec.Corrupt("carry row %d is out of (key, tag) order", i)
		}
		owned[[2]int64{r[colTag], r[colArrived]}]++
	}
	for s := range f.str {
		for _, b := range f.str[s].live {
			if n := owned[[2]int64{int64(s), int64(b.t)}]; n != b.n && dec.Err() == nil {
				dec.Corrupt("the block of stream %d uploaded at step %d owns %d carry rows, its ledger entry says %d", s, b.t, n, b.n)
			}
		}
	}
	if dec.Err() != nil {
		return dec.Err()
	}
	f.carry.Reset()
	f.carry.AppendColumns(payload, flags)
	return nil
}

// carryOrdered reports whether row a may precede row b in the carry.
func carryOrdered(a, b []int64) bool {
	return a[workload.ColKey] < b[workload.ColKey] ||
		(a[workload.ColKey] == b[workload.ColKey] && a[colTag] <= b[colTag])
}
