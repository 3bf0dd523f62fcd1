package snapshot

import (
	"sort"

	"incshrink/internal/dp"
	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/secretshare"
	"incshrink/internal/securearray"
)

// This file holds the section codecs for the data-plane containers and the
// MPC runtime. Each section is self-delimiting (every variable-length field
// is length-prefixed), so sections compose by concatenation and higher
// layers (core, incshrink) interleave their own fields freely.

// EncodeBuffer writes an oblivious.Buffer: the payload arena plus the
// parallel flag column — 8·arity + 1 bytes per slot.
func EncodeBuffer(e *Encoder, b *oblivious.Buffer) {
	e.Int(b.Arity())
	e.Int(b.Len())
	e.I64s(b.Payload().Data())
	e.Bools(b.Flags())
}

// DecodeBufferColumns reads a buffer encoded with EncodeBuffer as its two raw
// columns — row-major payload and flags — after checking the arity and the
// framing, for a caller that validates the contents before loading them.
func DecodeBufferColumns(d *Decoder, wantArity int) (payload []int64, flags []bool, err error) {
	arity := d.Int()
	n := d.Int()
	payload = d.I64s()
	flags = d.Bools()
	switch {
	case d.Err() != nil:
	case arity != wantArity:
		d.Corrupt("buffer arity %d, restoring into arity %d", arity, wantArity)
	case n < 0 || arity < 0 || len(flags) != n || len(payload) != n*arity:
		d.Corrupt("buffer of %d slots carries %d flags, %d attributes", n, len(flags), len(payload))
	}
	return payload, flags, d.Err()
}

// DecodeBufferInto reloads a buffer encoded with EncodeBuffer into dst,
// which must have the encoded arity and is reset first. The real-slot
// counter is rebuilt from the flag column.
func DecodeBufferInto(d *Decoder, dst *oblivious.Buffer) error {
	payload, flags, err := DecodeBufferColumns(d, dst.Arity())
	if err != nil {
		return err
	}
	dst.Reset()
	dst.Grow(len(flags))
	dst.AppendColumns(payload, flags)
	return nil
}

// EncodeCache writes a securearray.Cache: its arena plus its high-water mark.
// The runs the arena holds are not written (securearray.Cache.RestoreMaxLen).
func EncodeCache(e *Encoder, c *securearray.Cache) {
	EncodeBuffer(e, c.Buffer())
	e.Int(c.MaxLen())
}

// DecodeCacheInto reloads a cache encoded with EncodeCache into c (same
// arity required; the meter and tuple width stay as constructed).
func DecodeCacheInto(d *Decoder, c *securearray.Cache) error {
	if err := DecodeBufferInto(d, c.Buffer()); err != nil {
		return err
	}
	maxLen := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if maxLen < c.Len() {
		d.Corrupt("cache high-water mark %d below its length %d", maxLen, c.Len())
		return d.Err()
	}
	c.RestoreMaxLen(maxLen)
	return nil
}

// EncodeView writes a securearray.View: the bytes EncodeBuffer would write
// for the row-major equivalent of its column store — the payload is
// transposed on the way out, and the flag bitset is written one 0/1 byte per
// slot, the bools' encoding — plus the update counter.
func EncodeView(e *Encoder, v *securearray.View) {
	cols, n := v.Columns(), v.Len()
	e.Int(len(cols))
	e.Int(n)
	e.U32(uint32(n * len(cols)))
	for i := 0; i < n; i++ {
		for _, col := range cols {
			e.I64(col[i])
		}
	}
	e.U32(uint32(n))
	for i := 0; i < n; i++ {
		e.U8(v.FlagByte(i))
	}
	e.Int(v.Updates())
}

// DecodeViewInto reloads a view encoded with EncodeView into v (same arity
// required): the buffer section is decoded and validated row-major, then
// transposed back onto the view's columns.
func DecodeViewInto(d *Decoder, v *securearray.View) error {
	rows := oblivious.NewBuffer(v.Arity(), 0)
	if err := DecodeBufferInto(d, rows); err != nil {
		return err
	}
	updates := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if updates < 0 {
		d.Corrupt("view updates %d", updates)
		return d.Err()
	}
	v.Restore(rows, updates)
	return nil
}

func encodePartyState(e *Encoder, st mpc.PartyState) {
	// Refuse to write a draw position a restore would refuse to replay:
	// the checkpoint must fail now, loudly, not at the next boot.
	if st.Draws > dp.MaxResumeDraws {
		e.Fail("party draw position %d exceeds the resumable bound %d", st.Draws, uint64(dp.MaxResumeDraws))
	}
	e.U64(st.Draws)
	keys := make([]string, 0, len(st.Store))
	for k := range st.Store {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.String(k)
		e.U32(st.Store[k])
	}
	// Likewise a transcript-hash state a restore would refuse.
	if len(st.Digest) != mpc.DigestStateLen {
		e.Fail("party transcript digest state is %d bytes, want %d", len(st.Digest), mpc.DigestStateLen)
	}
	e.String(string(st.Digest))
	e.U64(st.EventCount)
	e.U64(st.WireRounds)
	e.U64(st.WireBytes)
}

func decodePartyState(d *Decoder) mpc.PartyState {
	st := mpc.PartyState{Draws: d.U64()}
	n := d.Len()
	if d.Err() != nil {
		return st
	}
	st.Store = make(map[string]secretshare.Word, min(n, allocChunk))
	for i := 0; i < n; i++ {
		k := d.String()
		v := d.U32()
		if d.Err() != nil {
			return st
		}
		st.Store[k] = v
	}
	if len(st.Store) != n {
		d.Corrupt("share store with duplicate keys")
		return st
	}
	// The hash state's length is checked here, its magic and contents by
	// SetState's UnmarshalBinary, whose error the callers make ErrCorrupt.
	st.Digest = []byte(d.String())
	if d.Err() == nil && len(st.Digest) != mpc.DigestStateLen {
		d.Corrupt("party transcript digest state of %d bytes, want %d", len(st.Digest), mpc.DigestStateLen)
	}
	st.EventCount = d.U64()
	st.WireRounds = d.U64()
	st.WireBytes = d.U64()
	return st
}

func encodeMeterState(e *Encoder, st mpc.MeterState) {
	e.U32(uint32(len(st.Gates)))
	for _, g := range st.Gates {
		e.F64(g)
	}
}

func decodeMeterState(d *Decoder) mpc.MeterState {
	var st mpc.MeterState
	ng := d.Len()
	if d.Err() != nil {
		return st
	}
	st.Gates = make([]float64, 0, min(ng, allocChunk))
	for i := 0; i < ng; i++ {
		st.Gates = append(st.Gates, d.F64())
		if d.Err() != nil {
			return st
		}
	}
	return st
}

// EncodeRuntime writes the full mutable state of an MPC runtime: each of its
// parties in order (randomness positions, share stores, transcript digests
// and event counts, wire tallies — so a crash-rejoined party with a fresh
// connection keeps attributing transcript events to the same positions in
// the wire conversation), the cost meter and the logical clock. The party
// count is the runtime's, not the stream's: two for the in-process runtime,
// one for a party process.
func EncodeRuntime(e *Encoder, rt *mpc.Runtime) {
	st := rt.State()
	for _, p := range st.Parties {
		encodePartyState(e, p)
	}
	encodeMeterState(e, st.Meter)
	e.Int(st.Now)
}

// DecodeRuntimeInto reloads runtime state encoded with EncodeRuntime into a
// runtime constructed the same way, with the same seed and cost model: it
// reads one party state per party the runtime drives. Every randomness
// stream is rebuilt from its seed and fast-forwarded to the recorded draw
// position — the invariant that makes restored protocol noise resume
// exactly where the snapshotted runtime stopped.
func DecodeRuntimeInto(d *Decoder, rt *mpc.Runtime) error {
	// The runtime's own state only sizes the party list; every field is read.
	st := rt.State()
	for i := range st.Parties {
		st.Parties[i] = decodePartyState(d)
	}
	st.Meter = decodeMeterState(d)
	st.Now = d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if err := rt.SetState(st); err != nil {
		d.Corrupt("%v", err)
		return d.Err()
	}
	return nil
}
