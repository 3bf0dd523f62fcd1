package incshrink

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
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

// TestFingerprintNamesEveryField sets each exported field of ViewDef and
// Options in turn and requires the configuration fingerprint to move: a field
// configFingerprint does not name would let a snapshot restore into another
// deployment.
func TestFingerprintNamesEveryField(t *testing.T) {
	def, opts := ViewDef{Within: 10}.withDefaults(), Options{Seed: 7}.withDefaults()
	base := configFingerprint(def, opts)
	for _, v := range []reflect.Value{reflect.ValueOf(&def).Elem(), reflect.ValueOf(&opts).Elem()} {
		for i := range v.NumField() {
			name := v.Type().Name() + "." + v.Type().Field(i).Name
			f := v.Field(i)
			if !v.Type().Field(i).IsExported() {
				continue
			}
			was := reflect.ValueOf(f.Interface())
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.5)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			default:
				t.Fatalf("%s: no edit for a %s field", name, f.Kind())
			}
			if configFingerprint(def, opts) == base {
				t.Errorf("setting %s moves no fingerprint: configFingerprint must name it", name)
			}
			f.Set(was)
		}
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
	const wantLen, wantSHA = 19700, "0ddaa1496dccb5681883ef8a7f068c95f849f02b847847710d0e23750f33a421"
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

// FuzzRestore feeds arbitrary bytes to Restore, the stream a durable server
// reads from disk. The contract under hostile input: a typed snapshot error,
// or a DB whose snapshot restores and re-encodes to the same bytes — never a
// panic. The seeds are real snapshots of both protocols, one deployment
// window-limited and one budget-limited, plus the two framing edge cases.
func FuzzRestore(f *testing.F) {
	for _, c := range []struct {
		within int64
		proto  Protocol
	}{{3, SDPTimer}, {20, SDPANT}} {
		db, err := Open(ViewDef{Within: c.within}, Options{Protocol: c.proto, T: 4, MaxLeft: 4, MaxRight: 4, Seed: 11})
		if err != nil {
			f.Fatal(err)
		}
		for i := range 30 {
			if err := db.Advance(stepRows(i)); err != nil {
				f.Fatal(err)
			}
		}
		db.Count()
		var buf bytes.Buffer
		if err := db.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(snapshot.Magic))
	f.Add([]byte{})
	typed := []error{snapshot.ErrCorrupt, snapshot.ErrTruncated, snapshot.ErrBadMagic,
		snapshot.ErrVersionMismatch, snapshot.ErrFingerprintMismatch}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Restore(bytes.NewReader(data))
		if err != nil {
			if !slices.ContainsFunc(typed, func(want error) bool { return errors.Is(err, want) }) {
				t.Fatalf("untyped restore error: %v", err)
			}
			return
		}
		var a, b bytes.Buffer
		if err := db.Snapshot(&a); err != nil {
			t.Fatal(err)
		}
		again, err := Restore(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("a restored DB's own snapshot does not restore: %v", err)
		}
		if err := again.Snapshot(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("snapshot -> restore -> snapshot changed the bytes")
		}
	})
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

	t.Run("no-seed", func(t *testing.T) {
		// A configuration section with seed 0 under a matching fingerprint:
		// Open would draw a fresh seed, so the restore must refuse it rather
		// than start a new stream. The seed is the options' eighth field.
		bad := append([]byte(nil), good...)
		at := len(snapshot.Magic) + 4 + 8 + (8 + 8 + 8 + 1) + (8 + 1 + 8 + 8 + 8 + 8 + 8)
		if got := int64(binary.LittleEndian.Uint64(bad[at:])); got != 5 {
			t.Fatalf("seed field reads %d, want 5", got)
		}
		binary.LittleEndian.PutUint64(bad[at:], 0)
		opts := db.opts
		opts.Seed = 0
		binary.LittleEndian.PutUint64(bad[len(snapshot.Magic)+4:], configFingerprint(db.def, opts))
		if _, err := Restore(bytes.NewReader(bad)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
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

// TestUnseededViewsDrawOwnNoise: two views opened without a seed over the
// same uploads release different view sizes — each drew its own seed, so the
// servers cannot read the difference of two true counts off the difference
// of two releases — and a restore continues the seed its snapshot carries
// instead of drawing another.
func TestUnseededViewsDrawOwnNoise(t *testing.T) {
	const steps = 40
	// run advances db over steps [from, to) and returns the view size after
	// each.
	run := func(db *DB, from, to int) []int {
		var sizes []int
		for i := from; i < to; i++ {
			k := int64(i)
			if err := db.Advance([]Row{{k, k}, {k + 100, k}}, []Row{{k, k}, {k + 100, k}}); err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, db.Stats().ViewSlots)
		}
		return sizes
	}
	var sizes [2][]int
	for i := range sizes {
		db, err := Open(ViewDef{Within: 5}, Options{T: 2, MaxLeft: 4, MaxRight: 4})
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = run(db, 0, steps/2)
		var buf bytes.Buffer
		if err := db.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(&buf)
		if err != nil {
			t.Fatal(err)
		}
		rest := run(db, steps/2, steps)
		if again := run(restored, steps/2, steps); !slices.Equal(rest, again) {
			t.Fatalf("view %d: the restore released %v, the uninterrupted view %v", i, again, rest)
		}
		sizes[i] = append(sizes[i], rest...)
	}
	if slices.Equal(sizes[0], sizes[1]) {
		t.Fatalf("two unseeded views released the same sizes: %v", sizes[0])
	}
}
