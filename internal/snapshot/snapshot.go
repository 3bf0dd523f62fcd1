// Package snapshot is the durability wire format: a versioned,
// length-prefixed, little-endian binary encoding (Encoder, Decoder) plus the
// framing every snapshot shares — a magic + format-version +
// config-fingerprint header and a CRC-32C trailer.
//
// It knows no engine type. Each type whose state a snapshot holds writes and
// reads its own section with these primitives, through an
// EncodeState(*Encoder) / DecodeState(*Decoder) pair over its own fields
// (oblivious.Buffer, securearray.Cache and View, mpc.Runtime,
// core.Framework), and sections compose by concatenation: every
// variable-length field is length-prefixed, so each is self-delimiting. A
// section decoder latches its errors in the Decoder, as the Decoder's own
// readers do, and loads nothing once one has latched, so a caller decodes
// its sections in order and checks Err (or Finish) once. Two invariants
// hold everywhere:
//
//   - Restores are exact. A restored structure is bit-identical to the one
//     snapshotted — including every RNG draw position — so a deployment that
//     restarts from a snapshot produces byte-identical protocol behavior to
//     one that never stopped (pinned by the golden crash-recovery tests in
//     internal/experiments).
//   - Decoding is hostile-input safe. Lengths are validated before use,
//     slice allocation grows with the bytes actually read (a forged length
//     cannot OOM the process), and every error path latches a typed error
//     in the Decoder instead of panicking; the fuzz targets pin that.
//
// Encoded bytes are deterministic for a given state: maps are serialized in
// sorted key order, so snapshot → restore → snapshot reproduces the same
// bytes (modulo nothing).
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
)

// Format identification. Version bumps whenever the layout of any section
// changes incompatibly; Restore refuses snapshots from other versions.
const (
	// Magic leads every snapshot stream.
	Magic = "INCSNAP\x01"
	// Version is the current format version. v2 added the per-party wire
	// tallies (transcript events and party state) and the standalone
	// party-runtime section; v3 replaced the engine's budget, arrival and
	// active-record sections with one window section per stream; v4 dropped
	// record identity — the two source-ID columns of every buffer and view
	// section, the ID of every window entry and the DB's ID cursor; v5
	// replaced the two arrival-ordered window sections with the per-stream
	// block ledgers and the one key-ordered carry they describe, and dropped
	// the cost model's unused equality-gate constant from the fingerprint; v6
	// replaced each party's transcript with its running SHA-256 and count; v7
	// dropped the runtime's protocol-internal draw position, a stream nothing
	// ever drew from; v8 dropped the cache's three operation counters and the
	// meter's per-phase call counts, which only tests read; v9 writes each
	// piece of engine state once, as the engine holds it — the view as its
	// columns and packed flag words, the carry as its two sides in arrival
	// order and its key order, without the tag and arrival-step columns — and
	// keeps one clock, the engine's, dropping the DB's and the runtime's
	// copies and the cache's high-water mark.
	Version = 9
)

// Typed decode errors, distinguishable with errors.Is.
var (
	// ErrBadMagic reports a stream that is not an IncShrink snapshot.
	ErrBadMagic = errors.New("snapshot: bad magic (not an IncShrink snapshot)")
	// ErrVersionMismatch reports a snapshot written by an incompatible
	// format version.
	ErrVersionMismatch = errors.New("snapshot: format version mismatch")
	// ErrFingerprintMismatch reports a snapshot taken under a different
	// configuration than the one it is being restored into.
	ErrFingerprintMismatch = errors.New("snapshot: configuration fingerprint mismatch")
	// ErrTruncated reports a stream that ended mid-structure.
	ErrTruncated = errors.New("snapshot: truncated stream")
	// ErrCorrupt reports structural damage: checksum failure or a field
	// whose value cannot be valid.
	ErrCorrupt = errors.New("snapshot: corrupt stream")
)

// crcTable is CRC-32C (Castagnoli), hardware-accelerated on mainstream CPUs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Fingerprint hashes canonical configuration strings into the 64-bit value
// the header carries, so a snapshot can only be restored into a deployment
// configured identically (FNV-1a over the parts, in order).
func Fingerprint(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		io.WriteString(h, p)
	}
	return h.Sum64()
}

// Named writes one fingerprint part from alternating names and values, in
// order, as {name:value ...} with each value as fmt's %v prints it. That is
// the text %+v gives a struct, but from names the caller writes down, so
// renaming, reordering or adding a Go field moves no fingerprint. The pairs
// read like log/slog's key-value arguments.
func Named(pairs ...any) string {
	b := []byte{'{'}
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b = append(b, ' ')
		}
		b = fmt.Appendf(b, "%v:%v", pairs[i], pairs[i+1])
	}
	return string(append(b, '}'))
}

// Encoder writes the snapshot wire format: fixed-width little-endian
// scalars, length-prefixed strings and slices, CRC-32C accumulated over
// every byte written. The first error latches; Finish reports it.
type Encoder struct {
	w       *bufio.Writer
	crc     hash.Hash32
	err     error
	scratch [8]byte
	chunk   [chunkBytes]byte
}

// chunkBytes is how much of a word slice I64s and U64s frame at a time:
// one buffered write or read and one CRC update per chunk rather than per
// word.
const chunkBytes = 4096

// NewEncoder starts a snapshot stream on w and writes the magic.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{w: bufio.NewWriter(w), crc: crc32.New(crcTable)}
	e.bytes([]byte(Magic))
	return e
}

func (e *Encoder) bytes(b []byte) {
	if e.err != nil {
		return
	}
	if _, err := e.w.Write(b); err != nil {
		e.err = err
		return
	}
	e.crc.Write(b)
}

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.bytes([]byte{v}) }

// U32 writes a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	binary.LittleEndian.PutUint32(e.scratch[:4], v)
	e.bytes(e.scratch[:4])
}

// U64 writes a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	binary.LittleEndian.PutUint64(e.scratch[:8], v)
	e.bytes(e.scratch[:8])
}

// I64 writes a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int writes an int as int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 writes a float64 as its IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool writes one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// String writes a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.bytes([]byte(s))
}

// I64s writes a length-prefixed []int64.
func (e *Encoder) I64s(vs []int64) { writeWords(e, vs) }

// U64s writes a length-prefixed []uint64.
func (e *Encoder) U64s(vs []uint64) { writeWords(e, vs) }

// writeWords writes a length prefix, then each word little-endian, a chunk
// of words at a time.
func writeWords[T int64 | uint64](e *Encoder, vs []T) {
	e.U32(uint32(len(vs)))
	for len(vs) > 0 {
		k := min(len(vs), chunkBytes/8)
		for i, v := range vs[:k] {
			binary.LittleEndian.PutUint64(e.chunk[8*i:], uint64(v))
		}
		e.bytes(e.chunk[:8*k])
		vs = vs[k:]
	}
}

// Bools writes a length-prefixed []bool, one byte per element.
func (e *Encoder) Bools(vs []bool) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.Bool(v)
	}
}

// Fail latches a formatted encode error, for section encoders that detect
// state the format cannot faithfully restore (the snapshot must fail
// loudly at write time, not produce a file that refuses to load).
func (e *Encoder) Fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("snapshot: %s", fmt.Sprintf(format, args...))
	}
}

// Finish writes the CRC-32C trailer (of everything written so far,
// including the magic) and flushes. The encoder must not be used afterwards.
func (e *Encoder) Finish() error {
	if e.err != nil {
		return e.err
	}
	sum := e.crc.Sum32()
	binary.LittleEndian.PutUint32(e.scratch[:4], sum)
	if _, err := e.w.Write(e.scratch[:4]); err != nil {
		return err
	}
	return e.w.Flush()
}

// Decoder reads the snapshot wire format, mirroring Encoder. Every read
// feeds the running CRC; Finish verifies the trailer. The first error
// latches: subsequent reads return zero values and Finish reports it.
type Decoder struct {
	r       *bufio.Reader
	crc     hash.Hash32
	err     error
	scratch [8]byte
	chunk   [chunkBytes]byte
}

// NewDecoder starts reading a snapshot stream and checks the magic.
func NewDecoder(r io.Reader) *Decoder {
	d := &Decoder{r: bufio.NewReader(r), crc: crc32.New(crcTable)}
	var magic [len(Magic)]byte
	d.bytes(magic[:])
	if d.err == nil && string(magic[:]) != Magic {
		d.err = ErrBadMagic
	}
	return d
}

func (d *Decoder) bytes(b []byte) {
	if d.err != nil {
		for i := range b {
			b[i] = 0
		}
		return
	}
	if _, err := io.ReadFull(d.r, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		d.err = err
		return
	}
	d.crc.Write(b)
}

// Corrupt latches a formatted ErrCorrupt, for structural validation by the
// section decoders built on this codec.
func (d *Decoder) Corrupt(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	d.bytes(d.scratch[:1])
	return d.scratch[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	d.bytes(d.scratch[:4])
	return binary.LittleEndian.Uint32(d.scratch[:4])
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	d.bytes(d.scratch[:8])
	return binary.LittleEndian.Uint64(d.scratch[:8])
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int64 and reports it as int, failing on platform overflow.
func (d *Decoder) Int() int {
	v := d.I64()
	n := int(v)
	if int64(n) != v {
		d.Corrupt("int64 %d overflows int", v)
		return 0
	}
	return n
}

// F64 reads a float64 from its IEEE-754 bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Corrupt("bool byte out of range")
		return false
	}
}

// maxStringLen bounds a single decoded string (labels and names, never
// bulk data).
const maxStringLen = 1 << 20

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.U32()
	if d.err != nil {
		return ""
	}
	if n > maxStringLen {
		d.Corrupt("string length %d exceeds limit", n)
		return ""
	}
	b := make([]byte, n)
	d.bytes(b)
	if d.err != nil {
		return ""
	}
	return string(b)
}

// allocChunk caps speculative slice pre-allocation during decode: a hostile
// length prefix only costs memory proportional to bytes actually present in
// the stream, because the slice grows as elements are read.
const allocChunk = 1 << 16

// Len reads a length prefix.
func (d *Decoder) Len() int { return int(d.U32()) }

// I64s reads a length-prefixed []int64.
func (d *Decoder) I64s() []int64 { return readWords[int64](d) }

// U64s reads a length-prefixed []uint64.
func (d *Decoder) U64s() []uint64 { return readWords[uint64](d) }

// readWords reads a length prefix, then that many little-endian words a
// chunk at a time; the slice grows as they are read (allocChunk).
func readWords[T int64 | uint64](d *Decoder) []T {
	n := d.Len()
	if d.err != nil {
		return nil
	}
	out := make([]T, 0, min(n, allocChunk))
	for len(out) < n {
		b := d.chunk[:8*min(n-len(out), chunkBytes/8)]
		d.bytes(b)
		if d.err != nil {
			return nil
		}
		for i := 0; i < len(b); i += 8 {
			out = append(out, T(binary.LittleEndian.Uint64(b[i:])))
		}
	}
	return out
}

// Bools reads a length-prefixed []bool; the slice grows as elements are
// read (allocChunk).
func (d *Decoder) Bools() []bool {
	n := d.Len()
	if d.err != nil {
		return nil
	}
	out := make([]bool, 0, min(n, allocChunk))
	for i := 0; i < n; i++ {
		out = append(out, d.Bool())
		if d.err != nil {
			return nil
		}
	}
	return out
}

// Err returns the latched decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish reads the CRC-32C trailer and verifies it against every byte
// decoded. It must be called exactly at the end of the encoded state.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	want := d.crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(d.r, tail[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: missing checksum trailer", ErrTruncated)
		}
		return err
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return fmt.Errorf("%w: checksum mismatch (stream %08x, computed %08x)", ErrCorrupt, got, want)
	}
	return nil
}

// WriteHeader writes the section header every snapshot carries right after
// the magic: format version plus the writer's configuration fingerprint.
func WriteHeader(e *Encoder, fingerprint uint64) {
	e.U32(Version)
	e.U64(fingerprint)
}

// ReadHeader reads the header and returns the stored fingerprint, failing
// with ErrVersionMismatch on a foreign format version. The caller compares
// the fingerprint against its own configuration (ErrFingerprintMismatch).
func ReadHeader(d *Decoder) (fingerprint uint64, err error) {
	v := d.U32()
	fingerprint = d.U64()
	if d.err != nil {
		return 0, d.err
	}
	if v != Version {
		return 0, fmt.Errorf("%w: stream v%d, this build reads v%d", ErrVersionMismatch, v, Version)
	}
	return fingerprint, nil
}
