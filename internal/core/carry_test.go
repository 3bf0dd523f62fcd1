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

// block is a one-block segment at step t, for driving stream.retire directly.
func block(t int) []uploadBlock { return []uploadBlock{{t: t}} }

func TestBudgetTracker(t *testing.T) {
	s := stream{total: 5, keep: -1, live: []liveBlock{{t: 0, remaining: 5}}}
	if s.retire(block(0), 2, 100); len(s.live) != 1 || s.live[0].remaining != 3 || s.live[0].t != 0 {
		t.Fatalf("after one consume of 2: %+v, want one block holding 3 from step 0", s.live)
	}
	if s.retire(block(1), 3, 100); len(s.live) != 0 {
		t.Errorf("block should retire at zero, ledger holds %+v", s.live)
	}
	// A retired block is gone for good; a new one starts from the full
	// budget, and charging only reaches blocks already uploaded.
	s.live = append(s.live, liveBlock{t: 5, remaining: 5})
	s.retire(block(4), 2, 100)
	if len(s.live) != 1 || s.live[0].remaining != 5 {
		t.Errorf("a block before the upload charged it: %+v", s.live)
	}
	// On a padded stream the ledger is held to the newest `keep` blocks.
	s = stream{total: 50, keep: 2}
	for step := 0; step < 6; step++ {
		s.live = append(s.live, liveBlock{t: step, remaining: 50})
		if s.retire(block(step), 1, 100); len(s.live) > 2 || s.live[0].t != max(step-1, 0) {
			t.Fatalf("step %d: ledger %+v, want the 2 newest blocks", step, s.live)
		}
	}
}

func TestBudgetTrackerUnlimited(t *testing.T) {
	s := stream{keep: -1, live: []liveBlock{{t: 0}}}
	for i := 0; i < 100; i++ {
		s.retire(block(i), 10, 1000)
		if len(s.live) != 1 {
			t.Fatal("the public stream retired a block by budget")
		}
	}
	s.retire(block(1001), 10, 1000)
	if len(s.live) != 0 {
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

// carryState is the window part of a snapshot — clock, ledgers, carry — in a
// form a test can edit before encoding it.
type carryState struct {
	now  int
	live [2][]liveBlock
	rows [][]int64
}

func carryStateOf(f *Framework) carryState {
	st := carryState{now: f.now}
	for s := range f.str {
		st.live[s] = slices.Clone(f.str[s].live)
	}
	for _, r := range joinOrder(f) {
		st.rows = append(st.rows, slices.Clone(r))
	}
	return st
}

// joinOrder returns the carry's rows in join order, as the snapshot writes
// them.
func joinOrder(f *Framework) []table.Row {
	b := oblivious.NewBuffer(carryArity, f.carry.Len())
	f.carry.AppendJoinOrder(b)
	rows := make([]table.Row, b.Len())
	for i := range rows {
		rows[i] = b.Row(i)
	}
	return rows
}

// checkUnion fails t unless the carry is the union the ledgers describe:
// each side holds exactly its live blocks' rows, block after block in ledger
// order; every key names a row that carries the key's (key, tag); every row
// is named once; and the keys are in (key, tag) order.
func checkUnion(t testing.TB, f *Framework, at string) {
	t.Helper()
	var named [2][]bool
	for s, side := range f.carry.Side {
		if side.Len() != f.str[s].rows() {
			t.Fatalf("%s: side %d holds %d rows, its ledger %d", at, s, side.Len(), f.str[s].rows())
		}
		i := 0
		for _, b := range f.str[s].live {
			for end := i + b.n; i < end; i++ {
				if r := side.Row(i); r[colTag] != int64(s) || r[colArrived] != int64(b.t) {
					t.Fatalf("%s: side %d row %d is %v, but lies in the block of step %d", at, s, i, r, b.t)
				}
			}
		}
		named[s] = make([]bool, side.Len())
	}
	var prev table.Row
	for j := range f.carry.Len() {
		key, s, i := f.carry.Key(j)
		if s > right || i >= len(named[s]) || named[s][i] {
			t.Fatalf("%s: key %d names row %d of side %d, which is absent or named twice", at, j, i, s)
		}
		named[s][i] = true
		r := f.carry.Side[s].Row(i)
		if r[workload.ColKey] != key {
			t.Fatalf("%s: key %d is (%d, %d), but names row %v", at, j, key, s, r)
		}
		if prev != nil && !carryOrdered(prev, r) {
			t.Fatalf("%s: key %d names %v, after %v: out of (key, tag) order", at, j, r, prev)
		}
		prev = r
	}
	if f.carry.Len() != len(named[left])+len(named[right]) {
		t.Fatalf("%s: %d keys over %d + %d rows", at, f.carry.Len(), len(named[left]), len(named[right]))
	}
}

func (st carryState) encode(enc *snapshot.Encoder) {
	encodeLedger(enc, st.live[left])
	encodeLedger(enc, st.live[right])
	b := oblivious.NewBuffer(carryArity, len(st.rows))
	for _, r := range st.rows {
		b.AppendRow(r)
	}
	snapshot.EncodeBuffer(enc, b)
}

// decodeCarryState runs the window part of DecodeState over f.
func decodeCarryState(f *Framework, dec *snapshot.Decoder, now int) error {
	f.now = now
	f.str[left].decode(dec, now)
	f.str[right].decode(dec, now)
	if dec.Err() != nil {
		return dec.Err()
	}
	return f.decodeCarry(dec)
}

// TestWindowLifecycleDoesNotLeak is the regression test for the record
// lifecycle on a window-limited deployment (Within/UploadEvery + 1 <
// Budget/Omega): a record that leaves because its join window lapsed must
// leave everything — the budget table used to keep one entry per such record
// forever, and write it into every snapshot. The carry is at its public cap
// from step 0 — whole blocks, pads included, whatever the uploads held — in
// join order, and its snapshot section never changes size.
func TestWindowLifecycleDoesNotLeak(t *testing.T) {
	for _, blockSize := range []int{8, 4} {
		t.Run(fmt.Sprintf("block=%d", blockSize), func(t *testing.T) {
			f := windowEngine(t, 3, blockSize)
			want := 2 * 3 * blockSize // Within 3, daily uploads: a record lives 4 invocations, 3 of them carried
			size := 0
			for step := 0; step < 4000; step++ {
				f.Step(windowStep(step))
				var buf bytes.Buffer
				enc := snapshot.NewEncoder(&buf)
				carryStateOf(f).encode(enc)
				if err := enc.Finish(); err != nil {
					t.Fatal(err)
				}
				if step == 0 {
					size = buf.Len()
				}
				if f.carry.Len() != want || len(f.str[left].live) != 3 || len(f.str[right].live) != 3 || buf.Len() != size {
					t.Fatalf("step %d: carry of %d rows over %d + %d blocks in %d snapshot bytes, want %d rows, 3 + 3 blocks, %d bytes",
						step, f.carry.Len(), len(f.str[left].live), len(f.str[right].live), buf.Len(), want, size)
				}
				checkUnion(t, f, fmt.Sprintf("step %d", step))
			}
			if n, _ := f.Query(); n == 0 {
				t.Error("empty view: the stream never exercised the join")
			}
		})
	}
}

// TestWindowDecodeRejectsCorruptStreams drives the ledger and carry decoders
// over streams that are well-framed but cannot be a window this engine wrote.
func TestWindowDecodeRejectsCorruptStreams(t *testing.T) {
	limited := func() *Framework { return windowEngine(t, 3, 4) }
	public := func() *Framework {
		wl := workload.Config{Name: "api", Steps: 1 << 30, UploadEvery: 1, MaxMultiplicity: 1,
			Within: 3, MaxLeft: 4, MaxRight: 4, RightPublic: true}
		f, err := NewTimerEngine(DefaultConfig(wl, 1), wl)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	const now = 5
	stateOf := func(f *Framework) carryState {
		for step := 0; step <= now; step++ {
			f.Step(windowStep(step))
		}
		return carryStateOf(f)
	}
	// swapRows exchanges the first two carry rows that differ in key.
	swapRows := func(st *carryState) {
		for i := 1; i < len(st.rows); i++ {
			if st.rows[i][workload.ColKey] != st.rows[0][workload.ColKey] {
				st.rows[0], st.rows[i] = st.rows[i], st.rows[0]
				return
			}
		}
	}
	cases := []struct {
		name   string
		engine func() *Framework
		edit   func(*carryState)
		encode func(*snapshot.Encoder) // overrides the edited state
		want   error
	}{
		{name: "valid", engine: limited, edit: func(*carryState) {}},
		{name: "valid public", engine: public, edit: func(*carryState) {}},
		{name: "budget spent", engine: limited, edit: func(st *carryState) { st.live[left][0].remaining = 0 }, want: snapshot.ErrCorrupt},
		{name: "budget above total", engine: limited, edit: func(st *carryState) { st.live[right][2].remaining = 11 }, want: snapshot.ErrCorrupt},
		{name: "budget on a public stream", engine: public, edit: func(st *carryState) { st.live[right][0].remaining = 4 }, want: snapshot.ErrCorrupt},
		{name: "arrived after now", engine: limited, edit: func(st *carryState) { st.rows[7][colArrived] = now + 1 }, want: snapshot.ErrCorrupt},
		{name: "block after now", engine: limited, edit: func(st *carryState) { st.live[left][2].t = now + 1 }, want: snapshot.ErrCorrupt},
		{name: "blocks out of order", engine: limited, edit: func(st *carryState) { st.live[left][1].t = st.live[left][0].t }, want: snapshot.ErrCorrupt},
		{name: "above the public cap", engine: limited, edit: func(st *carryState) {
			st.live[left] = append(st.live[left][:1:1], st.live[left]...)
			st.live[left][0].t--
		}, want: snapshot.ErrCorrupt},
		{name: "below the public cap", engine: limited, edit: func(st *carryState) { st.rows = st.rows[1:] }, want: snapshot.ErrCorrupt},
		{name: "short block", engine: limited, edit: func(st *carryState) { st.live[left][0].n-- }, want: snapshot.ErrCorrupt},
		{name: "out of key order", engine: limited, edit: swapRows, want: snapshot.ErrCorrupt},
		{name: "out of tag order", engine: limited, edit: func(st *carryState) {
			// Give a right row its left neighbour's key: (key, 1) then (key, 0).
			for i := 1; i < len(st.rows); i++ {
				if st.rows[i-1][colTag] == right && st.rows[i][colTag] == left {
					st.rows[i-1][workload.ColKey] = st.rows[i][workload.ColKey]
					return
				}
			}
			panic("no right row directly before a left row")
		}, want: snapshot.ErrCorrupt},
		{name: "no such block", engine: limited, edit: func(st *carryState) { st.rows[3][colArrived] = -40 }, want: snapshot.ErrCorrupt},
		{name: "block of the other stream", engine: public, edit: func(st *carryState) {
			// Hand one row of the oldest public block to the left stream: both
			// per-block counts are now off.
			for _, r := range st.rows {
				if r[colTag] == right && r[colArrived] == int64(st.live[right][0].t) {
					r[colTag] = left
					return
				}
			}
		}, want: snapshot.ErrCorrupt},
		{name: "bad tag", engine: limited, edit: func(st *carryState) { st.rows[len(st.rows)-1][colTag] = 2 }, want: snapshot.ErrCorrupt},
		{name: "wrong arity", engine: limited, want: snapshot.ErrCorrupt, encode: func(enc *snapshot.Encoder) {
			f := limited()
			encodeLedger(enc, f.str[left].live)
			encodeLedger(enc, f.str[right].live)
			snapshot.EncodeBuffer(enc, oblivious.NewBuffer(carryArity-1, 0))
		}},
		{name: "length beyond the stream", engine: limited, want: snapshot.ErrTruncated, encode: func(enc *snapshot.Encoder) {
			enc.U32(1 << 30)
			enc.Int(1)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			enc := snapshot.NewEncoder(&buf)
			var st carryState
			if c.encode != nil {
				c.encode(enc)
			} else {
				st = stateOf(c.engine())
				c.edit(&st)
				st.encode(enc)
			}
			if err := enc.Finish(); err != nil {
				t.Fatal(err)
			}
			f := c.engine()
			err := decodeCarryState(f, snapshot.NewDecoder(bytes.NewReader(buf.Bytes())), now)
			if !errors.Is(err, c.want) {
				t.Fatalf("decode error %v, want %v", err, c.want)
			}
			if c.want == nil && !reflect.DeepEqual(carryStateOf(f), st) {
				t.Fatalf("decoded %+v, want %+v", carryStateOf(f), st)
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
