package incshrink

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"incshrink/internal/snapshot"
)

// stepRows synthesizes one deterministic time step of uploads for tests:
// a couple of joining pairs plus noise, derived from the step number.
func stepRows(t int) (left, right []Row) {
	k := int64(t)
	left = []Row{{k, int64(t)}, {k + 1000, int64(t)}}
	right = []Row{{k, int64(t) + 1}}
	if t%3 == 0 {
		right = append(right, Row{k + 2000, int64(t)}) // joins nothing
	}
	return left, right
}

func mustOpen(t *testing.T, def ViewDef, opts Options) *DB {
	t.Helper()
	db, err := Open(def, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func advanceBoth(t *testing.T, dbs []*DB, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		l, r := stepRows(i)
		for _, db := range dbs {
			if err := db.Advance(l, r); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
}

// TestRecoverSmoke is the `make recover-smoke` entry point: advance a
// deployment mid-run, snapshot, restore, continue both the snapshotted and
// an uninterrupted database, and verify every count, filtered count and
// stat stays identical — and, at the end, the two snapshots byte for byte.
// The deployment is window-limited (Within 5 against ten uses of budget), so
// retirement by window is under the restore check too. The full golden
// matrix lives in internal/experiments.
func TestRecoverSmoke(t *testing.T) {
	for _, proto := range []Protocol{SDPTimer, SDPANT} {
		t.Run(proto.String(), func(t *testing.T) {
			def := ViewDef{Within: 5}
			opts := Options{Protocol: proto, T: 4, Seed: 11}
			ref := mustOpen(t, def, opts)
			victim := mustOpen(t, def, opts)

			advanceBoth(t, []*DB{ref, victim}, 0, 25)

			var buf bytes.Buffer
			if err := victim.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if restored.Now() != victim.Now() {
				t.Fatalf("restored at step %d, snapshotted at %d", restored.Now(), victim.Now())
			}

			advanceBoth(t, []*DB{ref, restored}, 25, 50)

			nRef, qetRef := ref.Count()
			nRes, qetRes := restored.Count()
			if nRef != nRes || qetRef != qetRes {
				t.Fatalf("Count diverged: restored (%d, %v), uninterrupted (%d, %v)", nRes, qetRes, nRef, qetRef)
			}
			wRef, _, err := ref.CountWhere(Where{Col: "right.time", Minus: "left.time", Cmp: Le, Val: 2})
			if err != nil {
				t.Fatal(err)
			}
			wRes, _, err := restored.CountWhere(Where{Col: "right.time", Minus: "left.time", Cmp: Le, Val: 2})
			if err != nil {
				t.Fatal(err)
			}
			if wRef != wRes {
				t.Fatalf("CountWhere diverged: restored %d, uninterrupted %d", wRes, wRef)
			}
			if ref.Stats() != restored.Stats() {
				t.Fatalf("Stats diverged:\nrestored: %+v\nuninterrupted: %+v", restored.Stats(), ref.Stats())
			}
			var a, b bytes.Buffer
			if err := ref.Snapshot(&a); err != nil {
				t.Fatal(err)
			}
			if err := restored.Snapshot(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("restored and uninterrupted databases snapshot to different bytes")
			}
		})
	}
}

// TestSnapshotRoundTripBytes pins that Snapshot → Restore → Snapshot
// reproduces the stream byte-for-byte at the public API level, and pins the
// first stream's length and SHA-256 so the format cannot drift unnoticed.
func TestSnapshotRoundTripBytes(t *testing.T) {
	db := mustOpen(t, ViewDef{Within: 4}, Options{Protocol: SDPANT, Seed: 3})
	advanceBoth(t, []*DB{db}, 0, 30)
	db.Count()

	var a bytes.Buffer
	if err := db.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	const wantLen, wantSHA = 22077, "4930c08321ec03ff5b7b8b5d2ca457e2f973aa49df6e91f6e57de0ca9c40e572"
	if sum := sha256.Sum256(a.Bytes()); a.Len() != wantLen || hex.EncodeToString(sum[:]) != wantSHA {
		t.Errorf("snapshot is %d bytes hashing to %x, want %d bytes hashing to %s", a.Len(), sum, wantLen, wantSHA)
	}
	restored, err := Restore(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := restored.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot -> restore -> snapshot changed the bytes")
	}
}

// TestRestoreRejectsDamage drives the error paths a durable server depends
// on: truncation at every prefix length, single-byte corruption, bad magic
// and a foreign format version must all fail loudly (and never panic), with
// the typed sentinel errors.
func TestRestoreRejectsDamage(t *testing.T) {
	db := mustOpen(t, ViewDef{Within: 3}, Options{Seed: 5})
	advanceBoth(t, []*DB{db}, 0, 12)
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 1, 7, 8, 9, 20, len(good) / 2, len(good) - 1} {
			if _, err := Restore(bytes.NewReader(good[:cut])); err == nil {
				t.Fatalf("restore of %d/%d bytes succeeded", cut, len(good))
			}
		}
		if _, err := Restore(bytes.NewReader(good[:len(good)-1])); !errors.Is(err, snapshot.ErrTruncated) && !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("missing trailer: want truncated/corrupt, got %v", err)
		}
	})

	t.Run("bit-flips", func(t *testing.T) {
		// Flip one byte at a spread of offsets; every damaged stream must be
		// rejected — by structural validation or, at the latest, by the CRC.
		for off := 0; off < len(good); off += 37 {
			bad := append([]byte(nil), good...)
			bad[off] ^= 0x5a
			if _, err := Restore(bytes.NewReader(bad)); err == nil {
				t.Fatalf("restore succeeded with byte %d corrupted", off)
			}
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff
		if _, err := Restore(bytes.NewReader(bad)); !errors.Is(err, snapshot.ErrBadMagic) {
			t.Fatalf("want ErrBadMagic, got %v", err)
		}
	})

	t.Run("version-mismatch", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		// The version field is the u32 right after the magic; the previous
		// format is refused like any other.
		bad[len(snapshot.Magic)] = snapshot.Version - 1
		if _, err := Restore(bytes.NewReader(bad)); !errors.Is(err, snapshot.ErrVersionMismatch) {
			t.Fatalf("want ErrVersionMismatch, got %v", err)
		}
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		// Extra bytes after the trailer are not part of the snapshot; a
		// stream reader stops at the trailer, so this must still restore.
		padded := append(append([]byte(nil), good...), "junk"...)
		if _, err := Restore(bytes.NewReader(padded)); err != nil {
			t.Fatalf("restore with trailing bytes after the trailer: %v", err)
		}
	})
}

// TestAdvanceRejectionMutatesNothing pins the replay contract: an Advance
// rejected for a malformed *right* row, after its left rows passed
// validation, leaves no trace — a corrected retry must produce a database
// byte-identical to a run that never saw the malformed step.
func TestAdvanceRejectionMutatesNothing(t *testing.T) {
	def := ViewDef{Within: 5}
	opts := Options{Seed: 9}
	clean := mustOpen(t, def, opts)
	retried := mustOpen(t, def, opts)

	advanceBoth(t, []*DB{clean, retried}, 0, 10)

	l, r := stepRows(10)
	// Malformed right row: arity 1. The left rows are valid.
	if err := retried.Advance(l, []Row{{42}}); err == nil {
		t.Fatal("malformed right row accepted")
	} else if !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("want ErrInvalidArgument, got %v", err)
	}
	if retried.Now() != clean.Now() {
		t.Fatalf("failed Advance moved time to %d", retried.Now())
	}
	// Retry with the corrected step, then continue both runs.
	if err := retried.Advance(l, r); err != nil {
		t.Fatal(err)
	}
	if err := clean.Advance(l, r); err != nil {
		t.Fatal(err)
	}
	advanceBoth(t, []*DB{clean, retried}, 11, 40)

	// The replay contract is byte-identical state, checked via snapshots.
	var a, b bytes.Buffer
	if err := clean.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := retried.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("a rejected-then-retried step diverged from a clean run")
	}
}

// TestOpenRejectsNegativeFields is the table test over the hostile inputs
// withDefaults silently accepted before: every negative field must be
// refused with ErrInvalidArgument through the Go API.
func TestOpenRejectsNegativeFields(t *testing.T) {
	cases := []struct {
		name string
		def  ViewDef
		opts Options
	}{
		{"within", ViewDef{Within: -1}, Options{}},
		{"omega", ViewDef{Omega: -1}, Options{}},
		{"budget", ViewDef{Budget: -3}, Options{}},
		{"epsilon", ViewDef{}, Options{Epsilon: -1.5}},
		{"epsilon-nan", ViewDef{}, Options{Epsilon: math.NaN()}},
		{"epsilon-inf", ViewDef{}, Options{Epsilon: math.Inf(1)}},
		{"t", ViewDef{}, Options{T: -10}},
		{"theta", ViewDef{}, Options{Theta: -30}},
		{"theta-inf", ViewDef{}, Options{Theta: math.Inf(1)}},
		{"upload-every", ViewDef{}, Options{UploadEvery: -1}},
		{"max-left", ViewDef{}, Options{MaxLeft: -32}},
		{"max-right", ViewDef{}, Options{MaxRight: -32}},
		{"protocol", ViewDef{}, Options{Protocol: Protocol(7)}},
		{"budget-below-omega", ViewDef{Omega: 10, Budget: 5}, Options{}},
		// Public sizes past the engine's cap, refused before any padding.
		{"unbounded-window-and-budget", ViewDef{Within: math.MaxInt64, Budget: math.MaxInt64}, Options{}},
		{"huge-max-left", ViewDef{Within: 5}, Options{MaxLeft: 1 << 40}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(tc.def, tc.opts)
			if err == nil {
				t.Fatalf("Open accepted %+v / %+v", tc.def, tc.opts)
			}
			if !errors.Is(err, ErrInvalidArgument) {
				t.Fatalf("want ErrInvalidArgument, got %v", err)
			}
			if db != nil {
				t.Fatal("non-nil DB alongside error")
			}
		})
	}
	// Zero values still mean "default" after the fix.
	db := mustOpen(t, ViewDef{Within: 10}, Options{})
	if got := fmt.Sprintf("%v", db.opts.Protocol); got != "sDPTimer" {
		t.Fatalf("default protocol = %s", got)
	}
}
