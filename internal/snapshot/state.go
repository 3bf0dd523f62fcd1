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
// layers (core, incshrink) interleave their own fields freely. A section
// decoder latches its errors in the Decoder, as the Decoder's own readers
// do, and loads nothing once one has latched: a caller decodes its sections
// in order and checks Err (or Finish) once.

// EncodeBuffer writes an oblivious.Buffer: the payload arena plus the
// parallel flag column — 8·arity + 1 bytes per slot.
func EncodeBuffer(e *Encoder, b *oblivious.Buffer) {
	e.Int(b.Arity())
	e.Int(b.Len())
	e.I64s(b.Payload().Data())
	e.Bools(b.Flags())
}

// DecodeBufferInto reloads a buffer encoded with EncodeBuffer into dst,
// which must have the encoded arity and is reset first. The arity and the
// framing are checked before anything is loaded; the real-slot counter is
// rebuilt from the flag column.
func DecodeBufferInto(d *Decoder, dst *oblivious.Buffer) {
	arity := d.Int()
	n := d.Int()
	payload := d.I64s()
	flags := d.Bools()
	switch {
	case d.Err() != nil:
	case arity != dst.Arity():
		d.Corrupt("buffer arity %d, restoring into arity %d", arity, dst.Arity())
	case n < 0 || arity < 0 || len(flags) != n || len(payload) != n*arity:
		d.Corrupt("buffer of %d slots carries %d flags, %d attributes", n, len(flags), len(payload))
	default:
		dst.Reset()
		dst.Grow(len(flags))
		dst.AppendColumns(payload, flags)
	}
}

// EncodeCache writes a securearray.Cache: its arena. The runs the arena
// holds are not written (securearray.Cache.Restored).
func EncodeCache(e *Encoder, c *securearray.Cache) { EncodeBuffer(e, c.Buffer()) }

// DecodeCacheInto reloads a cache encoded with EncodeCache into c (same
// arity required; the meter and tuple width stay as constructed).
func DecodeCacheInto(d *Decoder, c *securearray.Cache) {
	DecodeBufferInto(d, c.Buffer())
	c.Restored()
}

// EncodeView writes a securearray.View as it is held: its arity and slot
// count, each attribute column, the packed flag words — ⌈n/64⌉ of them — and
// the update counter.
func EncodeView(e *Encoder, v *securearray.View) {
	cols := v.Columns()
	e.Int(len(cols))
	e.Int(v.Len())
	for _, col := range cols {
		e.I64s(col)
	}
	e.U64s(v.FlagWords())
	e.Int(v.Updates())
}

// DecodeViewInto reloads a view encoded with EncodeView into v (same arity
// required). Every column must hold the view's n slots and the flag words
// must be the ⌈n/64⌉ a view of n slots keeps, no bit set at or past slot n;
// the real-tuple count is their popcount.
func DecodeViewInto(d *Decoder, v *securearray.View) {
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
		v.Restore(cols, flag, n, updates)
	}
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
// the wire conversation) and the cost meter. The party count is the
// runtime's, not the stream's: two for the in-process runtime, one for a
// party process. The logical clock is not here: it is the runtime owner's.
func EncodeRuntime(e *Encoder, rt *mpc.Runtime) {
	st := rt.State()
	for _, p := range st.Parties {
		encodePartyState(e, p)
	}
	encodeMeterState(e, st.Meter)
}

// DecodeRuntimeInto reloads runtime state encoded with EncodeRuntime into a
// runtime constructed the same way, with the same seed and cost model: it
// reads one party state per party the runtime drives. Every randomness
// stream is rebuilt from its seed and fast-forwarded to the recorded draw
// position — the invariant that makes restored protocol noise resume
// exactly where the snapshotted runtime stopped.
func DecodeRuntimeInto(d *Decoder, rt *mpc.Runtime) {
	// The runtime's own state only sizes the party list; every field is read.
	st := rt.State()
	for i := range st.Parties {
		st.Parties[i] = decodePartyState(d)
	}
	st.Meter = decodeMeterState(d)
	if d.Err() != nil {
		return
	}
	if err := rt.SetState(st); err != nil {
		d.Corrupt("%v", err)
	}
}
