package core

import (
	"incshrink/internal/oblivious"
	"incshrink/internal/snapshot"
	"incshrink/internal/table"
	"incshrink/internal/workload"
)

// Stream sides: the side of the carry a stream's rows are on, its join tag,
// and the index of the per-stream arrays of Framework.
const (
	left  = 0
	right = 1
)

// The carry is the Transform's standing input: the tagged union of both
// streams' live records and of the pads their upload blocks were filled to
// (oblivious.Union). Each stream's rows stay on its side of the union in
// arrival order, from admission until their block lapses; what is held in
// join order — sorted on (key, tag) — from one invocation to the next is only
// the union's key column, so an invocation sorts only its new blocks' keys
// and merges them in (oblivious.MergeJoinInto). A row is the record, what the
// join reads; its stream is its side, and its upload block follows from its
// position on the side and the ledger, which lists the side's blocks in the
// same order. A record has no identifier, and new-or-carried is its position.
// Blocks lapse oldest first, so the rows that lapse are a prefix of their
// side, cut after the join's scan has retired their keys. Between
// invocations the carry sits at its public cap: each padded stream holds
// exactly `keep` whole blocks, pads included (a pad is minted once, with its
// block, and leaves with it), from step 0 on (prefill). A public relation's
// records enter unpadded and are bounded by the join window alone. What an
// invocation costs is priced in price.go.

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

// retire ends a segment, the ledger's newest k blocks: block j is charged
// omega for each of the segment's blocks from its own upload onward, min(k,
// len(live)-j) of them, and must still be inside the temporal window at the
// newest — so budgets and death steps do not depend on how blocks were
// grouped into segments. The survivors are held to the newest `keep`.
func (s *stream) retire(k, omega int, within int64) {
	newest := s.live[len(s.live)-1].t
	kept := s.live[:0]
	for j, b := range s.live {
		if s.total > 0 {
			b.remaining -= omega * min(k, len(s.live)-j)
		}
		if (s.total <= 0 || b.remaining > 0) && int64(newest-b.t) <= within {
			kept = append(kept, b)
		}
	}
	if over := len(kept) - s.keep; s.keep >= 0 && over > 0 {
		kept = kept[:copy(kept, kept[over:])]
	}
	s.live = kept
}

// prefill starts the carry at its public cap by admitting, and charging, the
// uploads of the `keep` periods before step 0 as blocks of nothing but pads:
// they hold the budget such blocks would have left and retire on schedule.
// Pad keys ascend as they are minted, so the keys are already in join order.
func (f *Framework) prefill() {
	for j := f.str[left].keep; j >= 1; j-- {
		f.admit(f.cfg.Shape.nextUpload(-j*f.cfg.Shape.UploadEvery), [2][]oblivious.Record{})
		for s := range f.str {
			f.str[s].retire(1, f.cfg.Omega, f.cfg.Shape.Within)
		}
	}
}

// admit appends step t's upload block to the tail of each side of the carry,
// each key behind the union's: a padded stream's rows straight from the step,
// at most its block size, or the public relation's arrivals since the last
// upload, then pads up to the block size. A pad has a fresh never-matching
// key: pad keys ascend from the bottom of the negative half of the key
// domain, reserved for them (incshrink.DB rejects negative client keys).
func (f *Framework) admit(t int, recs [2][]oblivious.Record) {
	for s := range f.str {
		st, side := &f.str[s], f.carry.Side[s]
		from := side.Len()
		if st.block == 0 {
			for i := range f.pending.Len() {
				f.carry.Append(s, f.pending.Row(i))
			}
			f.pending.Reset()
		}
		for _, r := range recs[s][:min(len(recs[s]), st.block)] {
			f.carry.Append(s, r.Row[:workload.StreamArity])
		}
		for side.Len() < from+st.block {
			f.carry.Append(s, table.Row{f.dummyID, int64(t)})
			f.dummyID++
		}
		st.live = append(st.live, liveBlock{t: t, remaining: max(st.total, 0), n: side.Len() - from})
	}
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
// loop relies on: blocks in upload order, the newest the last upload before
// the engine's clock — every upload leaves a block on both ledgers that
// outlives its own step, and older blocks lapse first, so the clock cannot
// move without the ledger — a budget a block could hold, and on a padded
// stream exactly `keep` blocks of exactly the public size. last is the
// step of that upload. It stops at the first error, so a forged length
// costs only the bytes present.
func (s *stream) decode(dec *snapshot.Decoder, last int) {
	s.live = s.live[:0]
	for n := dec.Len(); n > 0 && dec.Err() == nil; n-- {
		b := liveBlock{t: dec.Int(), remaining: dec.Int(), n: dec.Int()}
		switch prev := len(s.live) - 1; {
		case dec.Err() != nil:
		case prev >= 0 && b.t <= s.live[prev].t:
			dec.Corrupt("block uploaded at step %d after one uploaded at %d", b.t, s.live[prev].t)
		case s.total > 0 && (b.remaining <= 0 || b.remaining > s.total), s.total <= 0 && b.remaining != 0:
			dec.Corrupt("block holds remaining budget %d of total %d", b.remaining, s.total)
		case b.n < s.block, s.block > 0 && b.n > s.block:
			dec.Corrupt("block of %d rows, public block size %d", b.n, s.block)
		}
		s.live = append(s.live, b)
	}
	switch n := len(s.live); {
	case dec.Err() != nil:
	case n > 0 && s.live[n-1].t != last:
		dec.Corrupt("newest block uploaded at step %d, the last upload before the engine clock at %d", s.live[n-1].t, last)
	case s.keep >= 0 && n != s.keep:
		dec.Corrupt("ledger of %d blocks, the public cap is %d", n, s.keep)
	}
}

// encodeCarry writes the carry as it is held: each side's rows in arrival
// order — every carry row is live, so no flag column — then the key order,
// one (side, position) word per key, then the public relation's arrivals.
func (f *Framework) encodeCarry(enc *snapshot.Encoder) {
	for _, side := range f.carry.Side {
		enc.I64s(side.Payload().Data())
	}
	enc.U32(uint32(f.carry.Len()))
	for j := range f.carry.Len() {
		_, s, i := f.carry.Key(j)
		enc.U64(uint64(s)<<32 | uint64(i))
	}
	f.pending.EncodeState(enc)
}

// decodeCarry reloads the carry written by encodeCarry and holds it to the
// two decoded ledgers: each side holds exactly its ledger's rows, and the
// key order names every row exactly once, in (key, side) order, without
// which every later merge would be silently wrong. The raw columns are
// checked before they are loaded; the restored union then equals the
// snapshotted one position for position. A padded row never outlives its
// step, so only a public relation may have arrivals.
func (f *Framework) decodeCarry(dec *snapshot.Decoder) {
	const arity = workload.StreamArity
	var rows [2][]int64
	for s := range rows {
		rows[s] = dec.I64s()
		if n := f.str[s].rows(); dec.Err() == nil && len(rows[s]) != n*arity {
			dec.Corrupt("side %d holds %d values, its ledger %d rows of %d", s, len(rows[s]), n, arity)
		}
	}
	n := dec.Len()
	if dec.Err() == nil && n*arity != len(rows[left])+len(rows[right]) {
		dec.Corrupt("%d keys over %d rows", n, (len(rows[left])+len(rows[right]))/arity)
	}
	if dec.Err() != nil {
		return
	}
	named := [2][]bool{make([]bool, len(rows[left])/arity), make([]bool, len(rows[right])/arity)}
	order := make([][2]int, n)
	for j := 0; j < n && dec.Err() == nil; j++ {
		w := dec.U64()
		s, i := int(min(w>>32, 2)), int(uint32(w))
		switch {
		case dec.Err() != nil:
		case s > right || i >= len(named[s]) || named[s][i]:
			dec.Corrupt("key %d names row %d of side %d, which is absent or named twice", j, i, s)
		case j > 0 && !carryOrdered(rows, order[j-1], [2]int{s, i}):
			dec.Corrupt("key %d is out of (key, side) order", j)
		default:
			named[s][i] = true
			order[j] = [2]int{s, i}
		}
	}
	if dec.Err() != nil {
		return
	}
	f.carry.Reset()
	for s, side := range f.carry.Side {
		side.Grow(len(named[s]))
		for k := 0; k < len(rows[s]); k += arity {
			side.AppendRow(rows[s][k : k+arity])
		}
	}
	for _, at := range order {
		f.carry.AppendKey(at[0], at[1])
	}
	if f.pending.DecodeState(dec); dec.Err() == nil && f.str[right].block > 0 && f.pending.Len() > 0 {
		dec.Corrupt("%d arrivals pending on a padded stream", f.pending.Len())
	}
}

// carryOrdered reports whether the decoded row a may precede row b in join
// order: a's (key, side) is at most b's.
func carryOrdered(rows [2][]int64, a, b [2]int) bool {
	ka := rows[a[0]][a[1]*workload.StreamArity+workload.ColKey]
	kb := rows[b[0]][b[1]*workload.StreamArity+workload.ColKey]
	return ka < kb || (ka == kb && a[0] <= b[0])
}
