package core

import (
	"fmt"
	"io"

	"incshrink/internal/oblivious"
	"incshrink/internal/snapshot"
)

// Framework durability. A snapshot captures every byte of mutable engine
// state — the MPC runtime (share stores, transcript digests, all RNG draw
// positions, the cost meter), the secure cache and materialized view arenas,
// the ledgers of live upload blocks (step, remaining budget, size) and the
// carry they describe (every live record and pad, in join order), the pending
// arrivals, the overflow and the counters — so a framework restored from it
// continues bit-identically to one that never stopped. The configuration (Config,
// workload, Shrink protocol) is *not* state: Restore targets a framework
// freshly constructed with the same parameters and refuses anything else via
// the header fingerprint.
//
// The built-in Shrink protocols keep their evolving state (cardinality
// counter, noisy threshold) secret-shared in the runtime's stores, so
// restoring the runtime restores them; a custom Shrinker with private
// mutable state is not supported by the codec.

// StateFingerprint canonically hashes the construction parameters a
// snapshot is only valid for: the full Config (seed included), the
// workload, and the Shrink protocol.
func (f *Framework) StateFingerprint() uint64 {
	return snapshot.Fingerprint(
		fmt.Sprintf("%+v", f.cfg),
		fmt.Sprintf("%+v", f.wl),
		f.shrink.Name(),
	)
}

// Snapshot writes a standalone framework snapshot: header (format version +
// construction fingerprint), full mutable state, CRC trailer.
func (f *Framework) Snapshot(w io.Writer) error {
	enc := snapshot.NewEncoder(w)
	snapshot.WriteHeader(enc, f.StateFingerprint())
	f.EncodeState(enc)
	return enc.Finish()
}

// Restore reloads a snapshot written by Snapshot into f, which must have
// been constructed with the same Config, workload and Shrink protocol
// (enforced by the fingerprint). On success f is bit-identical to the
// snapshotted framework; on any error f must be discarded (state may be
// partially replaced).
func (f *Framework) Restore(r io.Reader) error {
	dec := snapshot.NewDecoder(r)
	fp, err := snapshot.ReadHeader(dec)
	if err != nil {
		return err
	}
	if fp != f.StateFingerprint() {
		return fmt.Errorf("%w: snapshot %016x, this engine %016x",
			snapshot.ErrFingerprintMismatch, fp, f.StateFingerprint())
	}
	if err := f.DecodeState(dec); err != nil {
		return err
	}
	return dec.Finish()
}

// EncodeState writes the framework's mutable state as one self-delimiting
// section (no header or trailer), for embedding in a larger snapshot such
// as incshrink.DB's.
func (f *Framework) EncodeState(enc *snapshot.Encoder) {
	snapshot.EncodeRuntime(enc, f.rt)
	snapshot.EncodeCache(enc, f.cache)
	snapshot.EncodeView(enc, f.view)

	// Clock, ledgers, carry: each decoder checks against what came before.
	// Left arrivals never outlive a step, so only the right side's are state.
	enc.Int(f.now)
	encodeLedger(enc, f.str[left].live)
	encodeLedger(enc, f.str[right].live)
	carry := oblivious.NewBuffer(carryArity, f.carry.Len()) // the carry section is its rows in join order
	f.carry.AppendJoinOrder(carry)
	snapshot.EncodeBuffer(enc, carry)
	snapshot.EncodeBuffer(enc, f.pending[right])
	snapshot.EncodeBuffer(enc, f.overflow)

	enc.I64(f.dummyID)
	enc.Int(f.created)
	enc.Int(f.lostReal)
	enc.Int(f.transforms)
	enc.Int(f.queries)
	enc.F64(f.querySecs)
}

// DecodeState reloads state written by EncodeState. The caller is
// responsible for fingerprint/framing checks.
func (f *Framework) DecodeState(dec *snapshot.Decoder) error {
	if err := snapshot.DecodeRuntimeInto(dec, f.rt); err != nil {
		return err
	}
	if err := snapshot.DecodeCacheInto(dec, f.cache); err != nil {
		return err
	}
	if err := snapshot.DecodeViewInto(dec, f.view); err != nil {
		return err
	}

	f.now = dec.Int()
	f.str[left].decode(dec, f.now)
	f.str[right].decode(dec, f.now)
	if err := dec.Err(); err != nil {
		return err
	}
	if err := f.decodeCarry(dec); err != nil {
		return err
	}
	if err := snapshot.DecodeBufferInto(dec, f.pending[right]); err != nil {
		return err
	}
	if err := snapshot.DecodeBufferInto(dec, f.overflow); err != nil {
		return err
	}

	f.dummyID = dec.I64()
	f.created = dec.Int()
	f.lostReal = dec.Int()
	f.transforms = dec.Int()
	f.queries = dec.Int()
	f.querySecs = dec.F64()
	if err := dec.Err(); err != nil {
		return err
	}
	if f.dummyID >= 0 || f.created < 0 || f.lostReal < 0 || f.transforms < 0 || f.queries < 0 {
		dec.Corrupt("framework counters out of range (dummyID=%d created=%d lost=%d transforms=%d queries=%d)",
			f.dummyID, f.created, f.lostReal, f.transforms, f.queries)
		return dec.Err()
	}
	return nil
}
