package core

import (
	"incshrink/internal/oblivious"
	"incshrink/internal/snapshot"
	"incshrink/internal/workload"
)

// Framework durability. A snapshot captures every byte of mutable engine
// state — the MPC runtime (share stores, transcript digests, all RNG draw
// positions, the cost meter), the secure cache arena and the materialized
// view's columns and flag words, the engine clock, the ledgers of live upload
// blocks (step, remaining budget, size) and the carry they describe (each
// side's rows in arrival order, then the key order), the public relation's
// arrivals since its last upload and the counters — each as the engine holds it, so a framework restored from it
// continues bit-identically to one that never stopped. The configuration
// (Config, protocol) is *not* state: the state section
// restores into a framework freshly constructed with the same parameters,
// and the embedding snapshot (incshrink.DB's) carries the header that
// refuses anything else.
//
// The protocol set is closed, and each protocol's state is in the runtime's
// stores or derived from the view: the DP protocols keep theirs (cardinality
// counter, noisy threshold) secret-shared in the runtime, so restoring the
// runtime restores them, and OTM's freeze is its non-empty view, so it
// restores with the view.

// EncodeState writes the framework's mutable state as one self-delimiting
// section (no header or trailer), for embedding in a larger snapshot such
// as incshrink.DB's.
func (f *Framework) EncodeState(enc *snapshot.Encoder) {
	f.rt.EncodeState(enc)
	f.cache.EncodeState(enc)
	f.view.EncodeState(enc)

	// Clock, ledgers, carry: each decoder checks against what came before.
	enc.Int(f.now)
	encodeLedger(enc, f.str[left].live)
	encodeLedger(enc, f.str[right].live)
	f.encodeCarry(enc)
	// A reserved section: an empty join-arity buffer, where the delta cap's
	// overflow was kept before the cap became a truncation (DESIGN.md §8).
	oblivious.NewBuffer(workload.JoinArity, 0).EncodeState(enc)

	enc.I64(f.dummyID)
	enc.Int(f.created)
	enc.Int(f.lostReal)
	enc.Int(f.transforms)
	enc.Int(f.queries)
	enc.F64(f.querySecs)
}

// DecodeState reloads state written by EncodeState; like the section
// decoders it is built from, it latches its errors in dec. The caller is
// responsible for fingerprint/framing checks.
//
// The ledgers pin the clock only to its upload period: a clock moved by a
// period or more is ErrCorrupt, one moved inside it restores. Under sDPTimer
// no other state records the step inside the period — the transcript, the
// round tally, the cache and the view change only at a view update, on the
// T-grid — so catching that clock takes the step schedule, which a public
// step plan (ROADMAP item 21) will own; it is not copied here.
func (f *Framework) DecodeState(dec *snapshot.Decoder) {
	f.rt.DecodeState(dec)
	f.cache.DecodeState(dec)
	f.view.DecodeState(dec)

	// The runtime's clock is the engine's: the step that ran last.
	f.now = dec.Int()
	if dec.Err() == nil && f.now < 0 {
		dec.Corrupt("engine clock %d", f.now)
	}
	f.rt.SetTime(max(f.now-1, 0))
	last := f.cfg.Shape.nextUpload(f.now - f.cfg.Shape.UploadEvery) // the last upload before the clock
	f.str[left].decode(dec, last)
	f.str[right].decode(dec, last)
	f.decodeCarry(dec)
	f.joined.DecodeState(dec) // the reserved section; joined is Transform scratch
	if dec.Err() == nil && f.joined.Len() != 0 {
		dec.Corrupt("the reserved join section holds %d slots", f.joined.Len())
	}

	f.dummyID = dec.I64()
	f.created = dec.Int()
	f.lostReal = dec.Int()
	f.transforms = dec.Int()
	f.queries = dec.Int()
	f.querySecs = dec.F64()
	if dec.Err() == nil && (f.dummyID >= 0 || f.created < 0 || f.lostReal < 0 || f.transforms < 0 || f.queries < 0) {
		dec.Corrupt("framework counters out of range (dummyID=%d created=%d lost=%d transforms=%d queries=%d)",
			f.dummyID, f.created, f.lostReal, f.transforms, f.queries)
	}
}
