package incshrink

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// batchStep is the deterministic synthetic upload the equivalence tests
// drive: three left rows at time t and one right row joining the first of
// them within the window (the stream of deployments_test.go).
func batchStep(t int) StepRows {
	k := int64(t)
	return StepRows{
		Left:  []Row{{3 * k, k}, {3*k + 1, k}, {3*k + 2, k}},
		Right: []Row{{3 * k, k + 2}},
	}
}

// leftOnUploads sends step's left rows only at the upload steps of a view
// that uploads every n steps: a padded stream may send nothing in between.
func leftOnUploads(n int, step func(int) StepRows) func(int) StepRows {
	return func(t int) StepRows {
		st := step(t)
		if (t+1)%n != 0 {
			st.Left = nil
		}
		return st
	}
}

// batchOpts returns a deployment for the given protocol.
func batchOpts(p Protocol) Options {
	return Options{Epsilon: 1.5, Protocol: p, T: 10, Seed: 1}
}

// TestAdvanceBatchEquivalence is the batch-vs-sequential acceptance check:
// AdvanceBatch(s1..sk) must leave the database in a state byte-identical to
// k sequential Advance calls — counts, stats, and the full durability
// snapshot (cache and view arenas, budgets, RNG draw positions, cost meter)
// — for batch sizes 1, 7 and 120 under both DP engines. The second
// deployment puts the rest of the step loop under the same check: public
// arrivals carried across non-upload steps (UploadEvery 3), the
// public-relation no-padding branch, and omega > 1 on a stream where every
// left record matches two right records. The third is window-limited
// (Within/UploadEvery + 1 < Budget/Omega): its records retire because the
// join window lapses, not because their budget runs out.
func TestAdvanceBatchEquivalence(t *testing.T) {
	const horizon = 120
	deployments := []struct {
		name        string
		def         ViewDef
		uploadEvery int // 0 = the default, every step
		step        func(t int) StepRows
	}{
		{"default", ViewDef{Within: 10}, 0, batchStep},
		{"public-omega2-upload3", ViewDef{Within: 10, Omega: 2, RightPublic: true}, 3,
			leftOnUploads(3, func(t int) StepRows {
				st := batchStep(t)
				st.Right = append(st.Right, Row{3 * int64(t), int64(t) + 3})
				return st
			})},
		{"window-limited", ViewDef{Within: 3, Budget: 10}, 0, batchStep},
	}
	for _, proto := range []Protocol{SDPTimer, SDPANT} {
		for _, k := range []int{1, 7, 120} {
			t.Run(fmt.Sprintf("%s/k=%d", proto, k), func(t *testing.T) {
				for _, d := range deployments {
					t.Run(d.name, func(t *testing.T) {
						opts := batchOpts(proto)
						opts.UploadEvery = d.uploadEvery
						seq, err := Open(d.def, opts)
						if err != nil {
							t.Fatal(err)
						}
						bat, err := Open(d.def, opts)
						if err != nil {
							t.Fatal(err)
						}
						var steps []StepRows
						for s := 0; s < horizon; s++ {
							st := d.step(s)
							if err := seq.Advance(st.Left, st.Right); err != nil {
								t.Fatal(err)
							}
							steps = append(steps, st)
							if len(steps) == k {
								if err := bat.AdvanceBatch(steps); err != nil {
									t.Fatal(err)
								}
								steps = steps[:0]
							}
						}
						if len(steps) > 0 {
							if err := bat.AdvanceBatch(steps); err != nil {
								t.Fatal(err)
							}
						}
						ns, _ := seq.Count()
						nb, _ := bat.Count()
						if ns != nb {
							t.Fatalf("count diverged: sequential %d, batched %d", ns, nb)
						}
						if ns == 0 {
							t.Fatal("empty view: the stream never exercised the join")
						}
						if seq.Stats() != bat.Stats() {
							t.Fatalf("stats diverged:\nsequential %+v\nbatched    %+v", seq.Stats(), bat.Stats())
						}
						var sb, bb bytes.Buffer
						if err := seq.Snapshot(&sb); err != nil {
							t.Fatal(err)
						}
						if err := bat.Snapshot(&bb); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(sb.Bytes(), bb.Bytes()) {
							t.Fatalf("snapshots diverged (%d vs %d bytes): a batched run must be byte-identical to a sequential one", sb.Len(), bb.Len())
						}
					})
				}
			})
		}
	}
}

// TestAdvanceBatchAllOrNothing pins the validation contract: a batch with
// any invalid step mutates nothing — not even the steps before the bad one
// — and a corrected retry replays byte-identically to a clean run.
func TestAdvanceBatchAllOrNothing(t *testing.T) {
	opts := batchOpts(SDPTimer)
	opts.MaxLeft, opts.MaxRight = 4, 4
	clean, err := Open(ViewDef{Within: 10}, opts)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := Open(ViewDef{Within: 10}, opts)
	if err != nil {
		t.Fatal(err)
	}

	good := []StepRows{
		{Left: []Row{{1, 0}}, Right: []Row{{1, 1}}},
		{Left: []Row{{2, 1}}, Right: []Row{{2, 2}}},
	}
	bad := []StepRows{
		good[0],
		{Left: []Row{{9, 1}, {10, 1}, {11, 1}, {12, 1}, {13, 1}}}, // exceeds MaxLeft=4
	}
	err = dirty.AdvanceBatch(bad)
	if !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("oversized batch step: got %v, want ErrInvalidArgument", err)
	}
	if dirty.Now() != 0 {
		t.Fatalf("rejected batch moved the clock to %d", dirty.Now())
	}
	if err := dirty.AdvanceBatch(nil); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("empty batch: got %v, want ErrInvalidArgument", err)
	}

	// The corrected retry must continue exactly where a never-failed run is.
	if err := clean.AdvanceBatch(good); err != nil {
		t.Fatal(err)
	}
	if err := dirty.AdvanceBatch(good); err != nil {
		t.Fatal(err)
	}
	var cb, db bytes.Buffer
	if err := clean.Snapshot(&cb); err != nil {
		t.Fatal(err)
	}
	if err := dirty.Snapshot(&db); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb.Bytes(), db.Bytes()) {
		t.Fatal("rejected-then-retried batch diverged from a clean run: the rejection leaked state")
	}
}

// TestAdvanceCopiesRows pins the ownership contract of Advance and
// AdvanceBatch: rows are copied before the call returns, so a caller that
// overwrites every row it passed — as one reusing its buffers would — gets
// the same counts and the same snapshot bytes as one that never touches them
// again. The second deployment holds public arrivals across calls
// (UploadEvery 3), the longest the engine keeps a record before its upload.
func TestAdvanceCopiesRows(t *testing.T) {
	deployments := []struct {
		name string
		def  ViewDef
		opts Options
		step func(int) StepRows
	}{
		{"default", ViewDef{Within: 10}, Options{T: 4, Seed: 5}, batchStep},
		{"public-upload3", ViewDef{Within: 10, RightPublic: true}, Options{T: 4, Seed: 5, UploadEvery: 3}, leftOnUploads(3, batchStep)},
	}
	scribble := func(steps []StepRows) {
		for _, st := range steps {
			for _, rows := range [][]Row{st.Left, st.Right} {
				for _, r := range rows {
					for i := range r {
						r[i] = -7
					}
				}
			}
		}
	}
	for _, proto := range []Protocol{SDPTimer, SDPANT} {
		for _, d := range deployments {
			for _, batch := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/batch=%d", proto, d.name, batch), func(t *testing.T) {
					d.opts.Protocol = proto
					clean, reuse := mustOpen(t, d.def, d.opts), mustOpen(t, d.def, d.opts)
					joined := 0
					for s := 0; s < 48; s += batch {
						var a, b []StepRows
						for i := s; i < s+batch; i++ {
							a, b = append(a, d.step(i)), append(b, d.step(i))
						}
						if batch == 1 {
							if err := clean.Advance(a[0].Left, a[0].Right); err != nil {
								t.Fatal(err)
							}
							if err := reuse.Advance(b[0].Left, b[0].Right); err != nil {
								t.Fatal(err)
							}
						} else {
							if err := clean.AdvanceBatch(a); err != nil {
								t.Fatal(err)
							}
							if err := reuse.AdvanceBatch(b); err != nil {
								t.Fatal(err)
							}
						}
						scribble(b)
						nc, _ := clean.Count()
						nr, _ := reuse.Count()
						if nc != nr {
							t.Fatalf("after step %d: count %d with rows left alone, %d with rows overwritten", s+batch-1, nc, nr)
						}
						joined = nc
					}
					if joined == 0 {
						t.Fatal("empty view: the stream never exercised the join")
					}
					var cb, rb bytes.Buffer
					if err := clean.Snapshot(&cb); err != nil {
						t.Fatal(err)
					}
					if err := reuse.Snapshot(&rb); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(cb.Bytes(), rb.Bytes()) {
						t.Fatal("overwriting the caller's rows after the call changed the snapshot")
					}
				})
			}
		}
	}
}

// TestAdvanceRefusesOffScheduleRows pins the upload rule at the door. On a
// view that uploads every 3 steps (at steps 2, 5, 8, ...), a padded stream
// may send rows only at an upload: rows on either padded stream between
// uploads are refused, naming the step and the stream, before anything
// mutates, and one such step refuses its whole batch. A public relation
// sends at any step.
func TestAdvanceRefusesOffScheduleRows(t *testing.T) {
	opts := Options{T: 4, Seed: 5, UploadEvery: 3, MaxLeft: 2, MaxRight: 2}
	db := mustOpen(t, ViewDef{Within: 10}, opts)
	snapshot := func() []byte {
		var b bytes.Buffer
		if err := db.Snapshot(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	refused := func(err error, names ...string) {
		t.Helper()
		if !errors.Is(err, ErrInvalidArgument) {
			t.Fatalf("got %v, want ErrInvalidArgument", err)
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error %q does not name %q", err, name)
			}
		}
	}
	if err := db.Advance(nil, nil); err != nil {
		t.Fatal(err)
	}
	before := snapshot()
	refused(db.Advance([]Row{{1, 1}}, nil), "step 1:", "left")
	refused(db.Advance(nil, []Row{{1, 1}, {2, 1}}), "step 1:", "right")
	if db.Now() != 1 || !bytes.Equal(snapshot(), before) {
		t.Fatalf("a refused Advance moved the view: clock %d, snapshot changed %v", db.Now(), !bytes.Equal(snapshot(), before))
	}

	// Steps 1 to 3, where only step 2 is an upload: right rows at step 3
	// refuse the batch, and the upload at step 2 is not applied either.
	batch := []StepRows{{}, {Left: []Row{{1, 1}}, Right: []Row{{1, 2}, {2, 2}}}, {Right: []Row{{3, 3}}}}
	refused(db.AdvanceBatch(batch), "batch step 2 of 3", "step 3:", "right")
	if db.Now() != 1 || !bytes.Equal(snapshot(), before) {
		t.Fatalf("a refused batch moved the view: clock %d, snapshot changed %v", db.Now(), !bytes.Equal(snapshot(), before))
	}
	batch[2].Right = nil
	if err := db.AdvanceBatch(batch); err != nil || db.Now() != 4 {
		t.Fatalf("the corrected batch: %v, clock %d, want nil and 4", err, db.Now())
	}

	// The public relation's rows are accepted at every step.
	pub := mustOpen(t, ViewDef{Within: 10, RightPublic: true}, opts)
	for step := range 9 {
		st := leftOnUploads(3, batchStep)(step)
		if err := pub.Advance(st.Left[:min(len(st.Left), 2)], st.Right); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}
