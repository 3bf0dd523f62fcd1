package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/snapshot"
	"incshrink/internal/table"
	"incshrink/internal/workload"
)

// upload appends a block uploaded at step t holding budget remaining to the
// ledger and ends a one-block segment on it, for driving stream.retire
// directly.
func (s *stream) upload(t, remaining, omega int, within int64) {
	s.live = append(s.live, liveBlock{t: t, remaining: remaining})
	s.retire(1, omega, within)
}

func TestBudgetTracker(t *testing.T) {
	s := stream{total: 5, keep: -1}
	if s.upload(0, 5, 2, 100); len(s.live) != 1 || s.live[0].remaining != 3 || s.live[0].t != 0 {
		t.Fatalf("after one consume of 2: %+v, want one block holding 3 from step 0", s.live)
	}
	if s.upload(1, 5, 3, 100); len(s.live) != 1 || s.live[0].t != 1 {
		t.Errorf("the block of step 0 should retire at zero, ledger holds %+v", s.live)
	}
	// A segment's older blocks do not charge a newer one: of a three-block
	// segment, the newest is charged once and the oldest three times.
	s = stream{total: 50, keep: -1}
	for step := range 3 {
		s.live = append(s.live, liveBlock{t: step, remaining: 50})
	}
	s.retire(3, 2, 100)
	if got := []int{s.live[0].remaining, s.live[1].remaining, s.live[2].remaining}; !slices.Equal(got, []int{44, 46, 48}) {
		t.Errorf("a three-block segment left budgets %v, want [44 46 48]", got)
	}
	// On a padded stream the ledger is held to the newest `keep` blocks.
	s = stream{total: 50, keep: 2}
	for step := 0; step < 6; step++ {
		if s.upload(step, 50, 1, 100); len(s.live) > 2 || s.live[0].t != max(step-1, 0) {
			t.Fatalf("step %d: ledger %+v, want the 2 newest blocks", step, s.live)
		}
	}
}

func TestBudgetTrackerUnlimited(t *testing.T) {
	s := stream{keep: -1}
	for i := 0; i <= 1000; i++ {
		if s.upload(i, 0, 10, 1000); s.live[0].t != 0 {
			t.Fatal("the public stream retired a block by budget")
		}
	}
	if s.upload(1001, 0, 10, 1000); s.live[0].t != 1 {
		t.Error("the public stream must still retire by window")
	}
}

// windowEngine builds a small API-shaped deployment (every step an upload,
// multiplicity 1, default budget 10) with the given join window and block
// size; windowStep feeds it four joining pairs per step.
func windowEngine(t testing.TB, within int64, blockSize int) *Framework {
	return windowEngineOf(t, Shape{UploadEvery: 1, Within: within, MaxLeft: blockSize, MaxRight: blockSize})
}

// windowEngineOf builds an sDPTimer engine of the given Shape with
// incshrink.Open's default epsilon, omega, budget and theta, updating the
// view every step.
func windowEngineOf(t testing.TB, sh Shape) *Framework {
	t.Helper()
	f, err := NewTimerEngine(Config{Epsilon: 1.5, Omega: 1, Budget: 10, T: 1, Theta: 30, Seed: 1, Shape: sh})
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

// carryState is the window part of a snapshot — clock, ledgers, carry,
// arrivals — in a form a test can edit before encoding it: each side's rows
// in arrival order, the key order, one (side, position) per key, and the
// public relation's arrivals since its last upload.
type carryState struct {
	now     int
	live    [2][]liveBlock
	side    [2][][]int64
	keys    [][2]int
	arrived [][]int64
}

func carryStateOf(f *Framework) carryState {
	st := carryState{now: f.now}
	for s := range f.str {
		st.live[s] = slices.Clone(f.str[s].live)
		for i := range f.carry.Side[s].Len() {
			st.side[s] = append(st.side[s], slices.Clone(f.carry.Side[s].Row(i)))
		}
	}
	for j := range f.carry.Len() {
		_, s, i := f.carry.Key(j)
		st.keys = append(st.keys, [2]int{s, i})
	}
	for i := range f.pending.Len() {
		st.arrived = append(st.arrived, slices.Clone(f.pending.Row(i)))
	}
	return st
}

// checkUnion fails t unless the carry is the union the ledgers describe:
// each side holds exactly its live blocks' rows; every key names a row that
// carries the key; every row is named once; and the keys are in (key, tag)
// order.
func checkUnion(t testing.TB, f *Framework, at string) {
	t.Helper()
	var named [2][]bool
	for s, side := range f.carry.Side {
		if side.Len() != f.str[s].rows() {
			t.Fatalf("%s: side %d holds %d rows, its ledger %d", at, s, side.Len(), f.str[s].rows())
		}
		named[s] = make([]bool, side.Len())
	}
	prev := [2]int64{math.MinInt64, 0}
	for j := range f.carry.Len() {
		key, s, i := f.carry.Key(j)
		if s > right || i >= len(named[s]) || named[s][i] {
			t.Fatalf("%s: key %d names row %d of side %d, which is absent or named twice", at, j, i, s)
		}
		named[s][i] = true
		if r := f.carry.Side[s].Row(i); r[workload.ColKey] != key {
			t.Fatalf("%s: key %d is (%d, %d), but names row %v", at, j, key, s, r)
		}
		cur := [2]int64{key, int64(s)}
		if cur[0] < prev[0] || (cur[0] == prev[0] && cur[1] < prev[1]) {
			t.Fatalf("%s: key %d is %v, after %v: out of (key, tag) order", at, j, cur, prev)
		}
		prev = cur
	}
	if f.carry.Len() != len(named[left])+len(named[right]) {
		t.Fatalf("%s: %d keys over %d + %d rows", at, f.carry.Len(), len(named[left]), len(named[right]))
	}
}

func (st carryState) encode(enc *snapshot.Encoder) {
	encodeLedger(enc, st.live[left])
	encodeLedger(enc, st.live[right])
	for _, rows := range st.side {
		enc.I64s(slices.Concat(rows...))
	}
	enc.U32(uint32(len(st.keys)))
	for _, k := range st.keys {
		enc.U64(uint64(k[0])<<32 | uint64(k[1]))
	}
	arrived := oblivious.NewBuffer(workload.StreamArity, 0)
	for _, r := range st.arrived {
		arrived.AppendRow(r)
	}
	arrived.EncodeState(enc)
}

// decodeCarryState runs the window part of DecodeState over f, whose
// streams upload every step.
func decodeCarryState(f *Framework, dec *snapshot.Decoder, now int) error {
	f.now = now
	f.str[left].decode(dec, now-1)
	f.str[right].decode(dec, now-1)
	f.decodeCarry(dec)
	return dec.Err()
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

// TestOffScheduleRowsLeaveNoTrace holds a count of real rows out of every
// padded size. A deployment uploads every 3 steps with a private right
// stream of block 2, and both streams send n rows on every step, off the
// schedule too. A padded stream's rows are read only at an upload, so every
// Transform's batch is the padded omega·(MaxLeft + MaxRight) on both
// parties' transcripts, whatever n is; an engine that let right rows
// accumulate between uploads reads 4, 5 and 8 for n = 0, 1 and 2.
func TestOffScheduleRowsLeaveNoTrace(t *testing.T) {
	sh := Shape{UploadEvery: 3, Within: 10, MaxLeft: 2, MaxRight: 2}
	cfg := Config{Epsilon: 1.5, Omega: 1, Budget: 10, T: 1, Theta: 30, Seed: 1, Shape: sh}
	want := cfg.Omega * (sh.MaxLeft + sh.MaxRight)
	for n := range 3 {
		f, s0, s1 := newRecorded(t, cfg, timer)
		var steps []workload.Step
		for step := range 9 {
			st := workload.Step{T: step}
			for i := range n {
				key := int64(4*step + i)
				st.Left = append(st.Left, oblivious.Record{Row: table.Row{key, int64(step)}})
				st.Right = append(st.Right, oblivious.Record{Row: table.Row{key, int64(step)}})
			}
			steps = append(steps, st)
		}
		f.StepBatch(steps)
		for _, tr := range []*mpc.Transcript{s0, s1} {
			sizes := tr.SizesOf(mpc.EvBatchObserved)
			if len(sizes) != 3 || slices.ContainsFunc(sizes, func(size int) bool { return size != want }) {
				t.Fatalf("%d rows a step: party %d observed batches %v, want three of %d", n, tr.Party, sizes, want)
			}
		}
	}
}

// TestWindowDecodeRejectsCorruptStreams drives the ledger and carry decoders
// over streams that are well-framed but cannot be a window this engine wrote.
func TestWindowDecodeRejectsCorruptStreams(t *testing.T) {
	limited := func() *Framework { return windowEngine(t, 3, 4) }
	public := func() *Framework {
		return windowEngineOf(t, Shape{UploadEvery: 1, Within: 3, MaxLeft: 4, MaxRight: 4, RightPublic: true})
	}
	const now = 6 // the engine has run steps 0 to 5
	stateOf := func(f *Framework) carryState {
		for step := 0; step < now; step++ {
			f.Step(windowStep(step))
		}
		return carryStateOf(f)
	}
	keyOf := func(st *carryState, j int) int64 { return st.side[st.keys[j][0]][st.keys[j][1]][workload.ColKey] }
	// swapKeys exchanges the first two keys that differ in join key.
	swapKeys := func(st *carryState) {
		for j := 1; j < len(st.keys); j++ {
			if keyOf(st, j) != keyOf(st, 0) {
				st.keys[0], st.keys[j] = st.keys[j], st.keys[0]
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
		{name: "block after now", engine: limited, edit: func(st *carryState) { st.live[left][2].t = now }, want: snapshot.ErrCorrupt},
		{name: "ledger behind the clock", engine: public, edit: func(st *carryState) {
			for i := range st.live[right] {
				st.live[right][i].t--
			}
		}, want: snapshot.ErrCorrupt},
		{name: "blocks out of order", engine: limited, edit: func(st *carryState) { st.live[left][1].t = st.live[left][0].t }, want: snapshot.ErrCorrupt},
		{name: "above the public cap", engine: limited, edit: func(st *carryState) {
			st.live[left] = append(st.live[left][:1:1], st.live[left]...)
			st.live[left][0].t--
		}, want: snapshot.ErrCorrupt},
		{name: "short block", engine: limited, edit: func(st *carryState) { st.live[left][0].n-- }, want: snapshot.ErrCorrupt},
		// A block one row past the public size, its row in the carry and in
		// key order: only the ledger's block size refuses it.
		{name: "long block", engine: limited, edit: func(st *carryState) {
			st.live[left][2].n++
			st.side[left] = append(st.side[left], []int64{1 << 40, now - 1})
			st.keys = append(st.keys, [2]int{left, len(st.side[left]) - 1})
		}, want: snapshot.ErrCorrupt},
		// The carry: each side against its ledger, then the key order.
		{name: "below the public cap", engine: limited, edit: func(st *carryState) {
			st.side[left] = st.side[left][:len(st.side[left])-1]
			st.keys = slices.DeleteFunc(st.keys, func(k [2]int) bool { return k == [2]int{left, len(st.side[left])} })
		}, want: snapshot.ErrCorrupt},
		{name: "side longer than its ledger", engine: public, edit: func(st *carryState) {
			st.side[right] = append(st.side[right], []int64{1 << 40, now - 1})
			st.keys = append(st.keys, [2]int{right, len(st.side[right]) - 1})
		}, want: snapshot.ErrCorrupt},
		{name: "wrong arity", engine: limited, edit: func(st *carryState) {
			for s := range st.side {
				for i, r := range st.side[s] {
					st.side[s][i] = append(slices.Clone(r), 0)
				}
			}
		}, want: snapshot.ErrCorrupt},
		{name: "key missing", engine: limited, edit: func(st *carryState) { st.keys = st.keys[:len(st.keys)-1] }, want: snapshot.ErrCorrupt},
		{name: "bad tag", engine: limited, edit: func(st *carryState) { st.keys[len(st.keys)-1][0] = 2 }, want: snapshot.ErrCorrupt},
		{name: "key out of range", engine: limited, edit: func(st *carryState) {
			st.keys[len(st.keys)-1][1] = len(st.side[st.keys[len(st.keys)-1][0]])
		}, want: snapshot.ErrCorrupt},
		{name: "key repeated", engine: limited, edit: func(st *carryState) { st.keys[1] = st.keys[0] }, want: snapshot.ErrCorrupt},
		{name: "out of key order", engine: limited, edit: swapKeys, want: snapshot.ErrCorrupt},
		{name: "out of tag order", engine: limited, edit: func(st *carryState) {
			// Give a right row its left successor's key: (key, 1) then (key, 0).
			for j := 1; j < len(st.keys); j++ {
				if st.keys[j-1][0] == right && st.keys[j][0] == left {
					st.side[right][st.keys[j-1][1]][workload.ColKey] = keyOf(st, j)
					return
				}
			}
			panic("no right row directly before a left row")
		}, want: snapshot.ErrCorrupt},
		// The arrivals: only the public relation's outlive a step.
		{name: "arrivals on a padded stream", engine: limited, edit: func(st *carryState) {
			st.arrived = append(st.arrived, []int64{1 << 40, now - 1})
		}, want: snapshot.ErrCorrupt},
		{name: "arrivals on the public stream", engine: public, edit: func(st *carryState) {
			st.arrived = append(st.arrived, []int64{1 << 40, now - 1})
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

// FuzzDecodeFrameworkState feeds arbitrary bytes to Framework.DecodeState,
// framed as encodeState frames it. The contract under hostile input: a typed
// snapshot error, or a framework whose own state restores and re-encodes to
// the same bytes — never a panic. The seeds are real states of a
// window-limited and a budget-limited deployment, of one uploading every 3
// steps with a private right stream and of one uploading every 5 with a
// public right relation — the last two between uploads, the public one with
// arrivals pending — plus the two framing edge cases. Every input is decoded
// into all four layouts.
func FuzzDecodeFrameworkState(f *testing.F) {
	layouts := []Shape{
		{UploadEvery: 1, Within: 3, MaxLeft: 4, MaxRight: 4},
		{UploadEvery: 1, Within: 10, MaxLeft: 4, MaxRight: 4},
		{UploadEvery: 3, Within: 10, MaxLeft: 4, MaxRight: 4},
		{UploadEvery: 5, Within: 10, MaxLeft: 4, MaxRight: 4, RightPublic: true},
	}
	for _, sh := range layouts {
		e := windowEngineOf(f, sh)
		for step := 0; step < 31; step++ {
			st := windowStep(step)
			if !e.uploadDue(step) {
				st.Left = nil
				if !sh.RightPublic {
					st.Right = nil
				}
			}
			e.Step(st)
			e.Query()
		}
		seed := encodeState(f, e)
		if err := decodeState(windowEngineOf(f, sh), seed); err != nil {
			f.Fatalf("the seed of %+v does not restore: %v", sh, err)
		}
		f.Add(seed)
	}
	f.Add([]byte(snapshot.Magic))
	f.Add([]byte{})
	typed := []error{snapshot.ErrCorrupt, snapshot.ErrTruncated, snapshot.ErrBadMagic}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, sh := range layouts {
			e := windowEngineOf(t, sh)
			if err := decodeState(e, data); err != nil {
				if !slices.ContainsFunc(typed, func(want error) bool { return errors.Is(err, want) }) {
					t.Fatalf("untyped restore error: %v", err)
				}
				continue
			}
			a := encodeState(t, e)
			again := windowEngineOf(t, sh)
			if err := decodeState(again, a); err != nil {
				t.Fatalf("a restored framework's own state does not restore: %v", err)
			}
			if !bytes.Equal(a, encodeState(t, again)) {
				t.Fatal("encode -> decode -> encode changed the bytes")
			}
		}
	})
}
