package incshrink

import (
	"fmt"
	"io"

	"incshrink/internal/snapshot"
)

// Durability. A DB snapshot is a single self-contained stream: a versioned
// header, the view definition and deployment options (so Restore can rebuild
// the engine without any out-of-band configuration), and the full engine
// state — its clock, cache and view, contribution budgets, the carry,
// secret-share stores, transcript digests, the cost meter and every RNG draw
// position — closed by a CRC-32C trailer. The engine's clock is the DB's: it
// is written once. See DESIGN.md
// ("Durability") for the layout and the RNG-resume invariant.
//
// The contract is exact resumption: a restored DB is bit-identical to the
// one snapshotted, so the continuation of any workload produces the same
// counts, the same simulated costs and the same DP leakage as a process
// that never stopped.

// configFingerprint canonically hashes the (defaulted) view definition and
// options a snapshot belongs to, as named values in the order and text the
// format has always hashed: a new field must be named here, and renaming one
// moves nothing.
func configFingerprint(def ViewDef, opts Options) uint64 {
	return snapshot.Fingerprint(
		snapshot.Named("Within", def.Within, "Omega", def.Omega, "Budget", def.Budget, "RightPublic", def.RightPublic),
		snapshot.Named("Epsilon", opts.Epsilon, "Protocol", opts.Protocol, "T", opts.T, "Theta", opts.Theta,
			"UploadEvery", opts.UploadEvery, "MaxLeft", opts.MaxLeft, "MaxRight", opts.MaxRight,
			"Seed", opts.Seed, "MergeWindows", opts.MergeWindows))
}

// Snapshot serializes the database to w. The DB remains usable; the
// snapshot captures the state as of the last completed Advance/query (a
// snapshot never tears a step because the bare DB is single-goroutine, and
// the serving layer encodes checkpoints under the view's lock).
func (db *DB) Snapshot(w io.Writer) error {
	enc := snapshot.NewEncoder(w)
	snapshot.WriteHeader(enc, configFingerprint(db.def, db.opts))

	enc.I64(db.def.Within)
	enc.Int(db.def.Omega)
	enc.Int(db.def.Budget)
	enc.Bool(db.def.RightPublic)

	enc.F64(db.opts.Epsilon)
	enc.U8(uint8(db.opts.Protocol))
	enc.Int(db.opts.T)
	enc.F64(db.opts.Theta)
	enc.Int(db.opts.UploadEvery)
	enc.Int(db.opts.MaxLeft)
	enc.Int(db.opts.MaxRight)
	enc.I64(db.opts.Seed)
	enc.Bool(db.opts.MergeWindows)

	db.fw.EncodeState(enc)
	return enc.Finish()
}

// Restore reads a snapshot written by DB.Snapshot and reconstructs the
// database: the embedded definition and options rebuild the engine, then
// the engine state is reloaded and every randomness stream fast-forwarded
// to its recorded draw position. Typed failures: snapshot.ErrBadMagic,
// snapshot.ErrVersionMismatch, snapshot.ErrTruncated, snapshot.ErrCorrupt,
// snapshot.ErrFingerprintMismatch.
func Restore(r io.Reader) (*DB, error) {
	dec := snapshot.NewDecoder(r)
	fp, err := snapshot.ReadHeader(dec)
	if err != nil {
		return nil, err
	}

	var def ViewDef
	var opts Options
	def.Within = dec.I64()
	def.Omega = dec.Int()
	def.Budget = dec.Int()
	def.RightPublic = dec.Bool()

	opts.Epsilon = dec.F64()
	opts.Protocol = Protocol(dec.U8())
	opts.T = dec.Int()
	opts.Theta = dec.F64()
	opts.UploadEvery = dec.Int()
	opts.MaxLeft = dec.Int()
	opts.MaxRight = dec.Int()
	opts.Seed = dec.I64()
	opts.MergeWindows = dec.Bool()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if fp != configFingerprint(def, opts) {
		return nil, fmt.Errorf("%w: the configuration section does not match the header", snapshot.ErrFingerprintMismatch)
	}
	// Open draws a fresh seed for zero; a snapshot always records the one
	// its DB drew, and a restore must continue that stream, not start one.
	if opts.Seed == 0 {
		return nil, fmt.Errorf("%w: the configuration section has no seed", snapshot.ErrCorrupt)
	}

	db, err := Open(def, opts)
	if err != nil {
		return nil, fmt.Errorf("%w: embedded configuration rejected: %v", snapshot.ErrCorrupt, err)
	}
	db.fw.DecodeState(dec)
	if err := dec.Finish(); err != nil {
		return nil, err
	}
	return db, nil
}
