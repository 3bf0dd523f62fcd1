package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"incshrink/internal/oblivious"
	"incshrink/internal/snapshot"
	"incshrink/internal/table"
	"incshrink/internal/workload"
)

// block is a one-block segment at step t, for driving window.retire directly.
func block(t int) []uploadBlock { return []uploadBlock{{t: t}} }

func TestBudgetTracker(t *testing.T) {
	w := window{total: 5}
	w.admit([]windowEntry{{}}, 0)
	if got := w.entries[0].remaining; got != 5 {
		t.Errorf("remaining on entry = %d, want the full budget 5", got)
	}
	w.retire(block(0), 2, 100)
	if len(w.entries) != 1 || w.entries[0].remaining != 3 {
		t.Fatalf("after one consume of 2: %+v, want one entry holding 3", w.entries)
	}
	w.retire(block(1), 3, 100)
	if len(w.entries) != 0 {
		t.Errorf("record should retire at zero, window holds %+v", w.entries)
	}
	// A retired record is gone for good; a new one starts from the full
	// budget, and charging only reaches records already arrived.
	w.admit([]windowEntry{{}}, 5)
	w.retire(block(4), 2, 100)
	if len(w.entries) != 1 || w.entries[0].remaining != 5 {
		t.Errorf("a block before the record's arrival charged it: %+v", w.entries)
	}
}

func TestBudgetTrackerUnlimited(t *testing.T) {
	w := window{total: 0}
	w.admit([]windowEntry{{}}, 0)
	for i := 0; i < 100; i++ {
		w.retire(block(i), 10, 1000)
		if len(w.entries) != 1 {
			t.Fatal("the public stream retired a record by budget")
		}
	}
	w.retire(block(1001), 10, 1000)
	if len(w.entries) != 0 {
		t.Error("the public stream must still retire by window")
	}
}

// windowEngine builds a small API-shaped deployment (every step an upload,
// multiplicity 1, default budget 10) with the given join window and block
// size; windowStep feeds it four joining pairs per step.
func windowEngine(t testing.TB, within int64, blockSize int) *Framework {
	t.Helper()
	wl := workload.Config{Name: "api", Steps: 1 << 30, UploadEvery: 1, MaxMultiplicity: 1,
		Within: within, MaxLeft: blockSize, MaxRight: blockSize}
	f, err := NewTimerEngine(DefaultConfig(wl, 1), wl)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func windowStep(step int) workload.Step {
	st := workload.Step{T: step}
	for i := 0; i < 4; i++ {
		key := int64(4*step + i)
		st.Left = append(st.Left, oblivious.Record{Row: table.Row{key, int64(step)}})
		st.Right = append(st.Right, oblivious.Record{Row: table.Row{key, int64(step) + 1}})
	}
	return st
}

// encodedLen is the size of a window's snapshot section.
func encodedLen(t testing.TB, es []windowEntry) int {
	t.Helper()
	var buf bytes.Buffer
	enc := snapshot.NewEncoder(&buf)
	encodeEntries(enc, es)
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// TestWindowLifecycleDoesNotLeak is the regression test for the record
// lifecycle on a window-limited deployment (Within/UploadEvery + 1 <
// Budget/Omega): a record that leaves because its join window lapsed must
// leave everything — the budget table used to keep one entry per such record
// forever, and write it into every snapshot. With block size 4 the uploads
// fill their blocks, so the public cap, not the window check, is what binds.
func TestWindowLifecycleDoesNotLeak(t *testing.T) {
	for _, blockSize := range []int{8, 4} {
		t.Run(fmt.Sprintf("block=%d", blockSize), func(t *testing.T) {
			f := windowEngine(t, 3, blockSize)
			var early [2][2]int // per side: {records, encoded bytes} at step 100
			for step := 0; step < 4000; step++ {
				f.Step(windowStep(step))
				for s, w := range f.win {
					if len(w.entries) > w.cap {
						t.Fatalf("step %d side %d: %d records exceed the public cap %d", step, s, len(w.entries), w.cap)
					}
					now := [2]int{len(w.entries), encodedLen(t, w.entries)}
					switch step {
					case 99:
						early[s] = now
					case 3999:
						if now != early[s] || now[0] == 0 {
							t.Errorf("side %d: %d records / %d snapshot bytes at step 4000, %d / %d at step 100",
								s, now[0], now[1], early[s][0], early[s][1])
						}
					}
				}
			}
			if n, _ := f.Query(); n == 0 {
				t.Error("empty view: the stream never exercised the join")
			}
		})
	}
}

// TestWindowDecodeRejectsCorruptStreams drives the window section's decoder
// over streams that are well-framed but cannot be a window this engine wrote.
func TestWindowDecodeRejectsCorruptStreams(t *testing.T) {
	good := windowEntry{row: [2]int64{1, 2}, arrived: 3, remaining: 4}
	with := func(edit func(*windowEntry)) []windowEntry {
		e := good
		edit(&e)
		return []windowEntry{good, e}
	}
	limited, public := window{total: 10, cap: 2}, window{}
	cases := []struct {
		name    string
		w       window
		entries []windowEntry
		encode  func(*snapshot.Encoder) // overrides entries
		want    error
	}{
		// Two records equal in every field are two records: identity is position.
		{name: "valid", w: limited, entries: with(func(*windowEntry) {})},
		{name: "valid public", w: public, entries: with(func(e *windowEntry) { e.remaining = 0 })[1:]},
		{name: "budget spent", w: limited, entries: with(func(e *windowEntry) { e.remaining = 0 }), want: snapshot.ErrCorrupt},
		{name: "budget above total", w: limited, entries: with(func(e *windowEntry) { e.remaining = 11 }), want: snapshot.ErrCorrupt},
		{name: "budget on a public stream", w: public, entries: []windowEntry{good}, want: snapshot.ErrCorrupt},
		{name: "arrived after now", w: limited, entries: with(func(e *windowEntry) { e.arrived = 6 }), want: snapshot.ErrCorrupt},
		{name: "above the public cap", w: limited, entries: append(with(func(*windowEntry) {}), windowEntry{arrived: 1, remaining: 1}), want: snapshot.ErrCorrupt},
		{name: "wrong arity", w: limited, want: snapshot.ErrCorrupt, encode: func(enc *snapshot.Encoder) {
			enc.U32(1)
			enc.I64s([]int64{1, 2, 3})
			enc.Int(3)
			enc.Int(4)
		}},
		{name: "length beyond the stream", w: limited, want: snapshot.ErrTruncated, encode: func(enc *snapshot.Encoder) {
			enc.U32(1 << 30)
			enc.I64s([]int64{1, 2})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			enc := snapshot.NewEncoder(&buf)
			if c.encode != nil {
				c.encode(enc)
			} else {
				encodeEntries(enc, c.entries)
			}
			if err := enc.Finish(); err != nil {
				t.Fatal(err)
			}
			dec := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()))
			c.w.decode(dec, 5)
			if err := dec.Err(); !errors.Is(err, c.want) {
				t.Fatalf("decode error %v, want %v", err, c.want)
			}
			if c.want == nil && !reflect.DeepEqual(c.w.entries, c.entries) {
				t.Fatalf("decoded %+v, want %+v", c.w.entries, c.entries)
			}
		})
	}
}

// FuzzDecodeFrameworkState feeds arbitrary bytes to Framework.Restore. The
// contract under hostile input: a typed snapshot error, or a framework whose
// own snapshot restores and re-encodes to the same bytes — never a panic. The
// seeds are real snapshots of a window-limited and a budget-limited
// deployment plus the two framing edge cases.
func FuzzDecodeFrameworkState(f *testing.F) {
	withins := []int64{3, 10}
	for _, within := range withins {
		e := windowEngine(f, within, 4)
		for step := 0; step < 30; step++ {
			e.Step(windowStep(step))
			e.Query()
		}
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(snapshot.Magic))
	f.Add([]byte{})
	typed := []error{snapshot.ErrCorrupt, snapshot.ErrTruncated, snapshot.ErrBadMagic,
		snapshot.ErrVersionMismatch, snapshot.ErrFingerprintMismatch}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, within := range withins {
			e := windowEngine(t, within, 4)
			if err := e.Restore(bytes.NewReader(data)); err != nil {
				if !slices.ContainsFunc(typed, func(want error) bool { return errors.Is(err, want) }) {
					t.Fatalf("untyped restore error: %v", err)
				}
				continue
			}
			var a, b bytes.Buffer
			if err := e.Snapshot(&a); err != nil {
				t.Fatal(err)
			}
			again := windowEngine(t, within, 4)
			if err := again.Restore(bytes.NewReader(a.Bytes())); err != nil {
				t.Fatalf("a restored framework's own snapshot does not restore: %v", err)
			}
			if err := again.Snapshot(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("snapshot -> restore -> snapshot changed the bytes")
			}
		}
	})
}
