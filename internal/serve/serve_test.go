package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"incshrink"
	"incshrink/internal/runner"
)

// testDef/testOpts are small, fast deployments for the serving tests.
func testDef() incshrink.ViewDef { return incshrink.ViewDef{Within: 5} }

func testOpts(seed int64) incshrink.Options {
	return incshrink.Options{Seed: seed, T: 3, MaxLeft: 8, MaxRight: 8}
}

func TestRegistryLifecycle(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(context.Background())

	if _, err := reg.Create("", testDef(), testOpts(1)); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := reg.Create("bad", incshrink.ViewDef{Within: -1}, testOpts(1)); err == nil {
		t.Error("invalid view definition accepted")
	}

	v, err := reg.Create("sales", testDef(), testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if v.name != "sales" {
		t.Errorf("name = %q", v.name)
	}
	if _, err := reg.Create("sales", testDef(), testOpts(1)); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := reg.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get missing: %v", err)
	}
	if _, err := reg.Create("returns", testDef(), testOpts(2)); err != nil {
		t.Fatal(err)
	}
	names := reg.Names()
	if len(names) != 2 || names[0] != "returns" || names[1] != "sales" {
		t.Errorf("names = %v", names)
	}
	if reg.Len() != 2 {
		t.Errorf("len = %d", reg.Len())
	}

	if err := reg.Drop("returns"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Drop("returns"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double drop: %v", err)
	}
	if _, err := reg.Get("returns"); !errors.Is(err, ErrNotFound) {
		t.Error("dropped view still resolvable")
	}
}

func TestAdvanceAndCountThroughView(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(context.Background())
	v, err := reg.Create("v", testDef(), testOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for day := 0; day < 30; day++ {
		k := int64(day + 1)
		step, err := v.Advance(ctx, []incshrink.Row{{k, int64(day)}}, []incshrink.Row{{k, int64(day)}})
		if err != nil {
			t.Fatal(err)
		}
		if step != day+1 {
			t.Fatalf("step = %d after %d advances", step, day+1)
		}
	}
	n, qet, _ := v.CountWhere()
	if n == 0 {
		t.Error("count never grew")
	}
	if qet <= 0 {
		t.Error("QET should be positive")
	}
	if _, _, err := v.CountWhere(incshrink.Where{Col: "left.key", Cmp: incshrink.Le, Val: 10}); err != nil {
		t.Error(err)
	}
	if _, _, err := v.CountWhere(incshrink.Where{Col: "price", Cmp: incshrink.Gt, Val: 0}); err == nil {
		t.Error("unknown column accepted")
	}
	st := v.Stats()
	if st.Serve.Advances != 30 {
		t.Errorf("advances = %d", st.Serve.Advances)
	}
	if st.Serve.Queries != 2 { // Count + one successful CountWhere
		t.Errorf("queries = %d", st.Serve.Queries)
	}
	if st.Stats.Step != 30 {
		t.Errorf("db step = %d", st.Stats.Step)
	}
}

func TestAdvanceUploadErrorCounted(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(context.Background())
	v, err := reg.Create("v", testDef(), incshrink.Options{Seed: 1, MaxLeft: 2, MaxRight: 2})
	if err != nil {
		t.Fatal(err)
	}
	big := []incshrink.Row{{1, 0}, {2, 0}, {3, 0}}
	if _, err := v.Advance(context.Background(), big, nil); err == nil {
		t.Error("oversized upload accepted")
	}
	if st := v.Stats(); st.Serve.Failed != 1 || st.Serve.Advances != 0 {
		t.Errorf("serve stats after failed upload: %+v", st.Serve)
	}
}

// TestWriterAdmission holds the view mutex and fills the view with
// writers: maxWriters of them wait, every one beyond bounces at once with
// ErrBusy, and every admitted one applies once the mutex is released.
func TestWriterAdmission(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(context.Background())
	v, err := reg.Create("v", testDef(), testOpts(1))
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	row := []incshrink.Row{{1, 0}}
	v.mu.Lock()
	done := make(chan error, maxWriters)
	for i := 0; i < maxWriters; i++ {
		go func() {
			_, err := v.Advance(ctx, row, nil)
			done <- err
		}()
	}
	waitFor(t, func() bool { return v.writers.Load() == maxWriters })

	// Overflow must bounce immediately with ErrBusy — synchronously, even
	// though the mutex is held.
	for i := 0; i < 5; i++ {
		if _, err := v.Advance(ctx, row, nil); !errors.Is(err, ErrBusy) {
			t.Fatalf("overflow %d: expected ErrBusy, got %v", i, err)
		}
	}
	v.mu.Unlock()
	for i := 0; i < maxWriters; i++ {
		if err := <-done; err != nil {
			t.Errorf("admitted upload failed: %v", err)
		}
	}
	st := v.Stats()
	if st.Serve.Advances != maxWriters || st.Serve.Rejected != 5 || st.Stats.Step != maxWriters {
		t.Errorf("advances=%d rejected=%d step=%d, want %d/5/%d", st.Serve.Advances, st.Serve.Rejected, st.Stats.Step, maxWriters, maxWriters)
	}
	if n := v.writers.Load(); n != 0 {
		t.Errorf("%d writers still counted after every write returned", n)
	}
}

// TestViewsStartNoGoroutines pins that a view is one mutex, not a worker:
// creating, writing to and dropping 64 views leaves the goroutine count
// where it was. Goroutines other tests leave behind may come and go
// meanwhile, so a few attempts are allowed; one goroutine per view would
// fail every one of them.
func TestViewsStartNoGoroutines(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(context.Background())
	ctx := context.Background()
	var counts [3]int
	for attempt := 0; attempt < 5; attempt++ {
		counts[0] = runtime.NumGoroutine()
		for i := 0; i < 64; i++ {
			v, err := reg.Create(fmt.Sprintf("v%d", i), testDef(), testOpts(int64(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v.Advance(ctx, []incshrink.Row{{1, 0}}, nil); err != nil {
				t.Fatal(err)
			}
		}
		counts[1] = runtime.NumGoroutine()
		for i := 0; i < 64; i++ {
			if err := reg.Drop(fmt.Sprintf("v%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		counts[2] = runtime.NumGoroutine()
		if counts[1] == counts[0] && counts[2] == counts[0] {
			return
		}
	}
	t.Fatalf("goroutines before, with and after 64 views: %v", counts)
}

// waitFor polls cond until true or the deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second) //lint:allow detclock test-only deadline polling against live goroutines
	for !cond() {
		if time.Now().After(deadline) { //lint:allow detclock test-only deadline polling against live goroutines
			t.Fatal("condition not reached before deadline")
		}
		time.Sleep(time.Millisecond) //lint:allow detclock test-only deadline polling against live goroutines
	}
}

func TestCloseDrainsAdmittedUploads(t *testing.T) {
	reg := NewRegistry(Config{})
	v, err := reg.Create("v", testDef(), testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	errs := make(chan error, 5)
	for i := 0; i < 5; i++ {
		go func(i int) {
			_, err := v.Advance(ctx, []incshrink.Row{{int64(i + 1), 0}}, nil)
			errs <- err
		}(i)
	}
	// Close concurrently with the uploads: every acknowledged upload must
	// have applied by the time Close returns, and the rest fail with
	// ErrClosed (or ErrBusy).
	if err := reg.Close(ctx); err != nil {
		t.Fatal(err)
	}
	var applied int64
	for i := 0; i < 5; i++ {
		switch err := <-errs; {
		case err == nil:
			applied++
		case errors.Is(err, ErrClosed), errors.Is(err, ErrBusy):
		default:
			t.Errorf("unexpected advance error: %v", err)
		}
	}
	st := v.Stats()
	if st.Serve.Advances != applied || int64(st.Stats.Step) != applied {
		t.Errorf("after close: advances=%d step=%d, want %d applied", st.Serve.Advances, st.Stats.Step, applied)
	}
	if _, err := v.Advance(ctx, []incshrink.Row{{9, 0}}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("advance after close: %v", err)
	}
	if _, err := reg.Create("late", testDef(), testOpts(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("create after close: %v", err)
	}
	if err := reg.Close(ctx); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// genStep produces one step of synthetic uploads: n sales at time t, each
// with probability ~0.7 of a matching return within the view window. Row
// content is a pure function of the per-view rng stream.
func genStep(rng *rand.Rand, t int, n int, within int64, nextKey *int64) (left, right []incshrink.Row) {
	for i := 0; i < n; i++ {
		k := *nextKey
		*nextKey++
		left = append(left, incshrink.Row{k, int64(t)})
		if rng.Float64() < 0.7 {
			lag := rng.Int63n(within + 1)
			right = append(right, incshrink.Row{k, int64(t) + lag})
		}
	}
	return left, right
}

// TestConcurrentMatchesSequential is the acceptance determinism check: 8
// views driven concurrently through the registry (one goroutine per view,
// admission rejections retried) produce counts identical to sequential
// single-view replays of the same traces into bare DBs. Run under -race.
func TestConcurrentMatchesSequential(t *testing.T) {
	const views, steps, rows, seed = 8, 40, 2, 2022
	reg := NewRegistry(Config{})
	defer reg.Close(context.Background())
	ctx := context.Background()

	// drive feeds view name's trace, a pure function of (seed, name), to
	// advance one step at a time.
	drive := func(name string, advance func(left, right []incshrink.Row) error) error {
		rng := rand.New(rand.NewSource(runner.DeriveSeed(seed, name+"/workload")))
		nextKey := int64(1)
		for s := 0; s < steps; s++ {
			left, right := genStep(rng, s, rows, testDef().Within, &nextKey)
			if err := advance(left, right); err != nil {
				return fmt.Errorf("view %s step %d: %w", name, s, err)
			}
		}
		return nil
	}
	counts := make([]int, views)
	var wg sync.WaitGroup
	for i := 0; i < views; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("load-%03d", i)
			v, err := reg.Create(name, testDef(), testOpts(runner.DeriveSeed(seed, name)))
			if err == nil {
				err = drive(name, func(left, right []incshrink.Row) error {
					for {
						_, err := v.Advance(ctx, left, right)
						if !errors.Is(err, ErrBusy) {
							return err
						}
						time.Sleep(time.Millisecond) //lint:allow detclock admission backoff pacing; a retry is idempotent, so timing never changes results
					}
				})
			}
			if err != nil {
				t.Error(err)
				return
			}
			counts[i], _, _ = v.CountWhere()
		}(i)
	}
	wg.Wait()

	for i := 0; i < views; i++ {
		name := fmt.Sprintf("load-%03d", i)
		db, err := incshrink.Open(testDef(), testOpts(runner.DeriveSeed(seed, name)))
		if err == nil {
			err = drive(name, db.Advance)
		}
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := db.Count(); counts[i] != want {
			t.Errorf("view %s: concurrent count %d != sequential %d", name, counts[i], want)
		}
	}
}

// TestConcurrentAdvanceCountRace is the race-detector acceptance test: 8
// views, each with one writer and two readers issuing interleaved
// Count/CountWhere/Stats while ingestion is in flight. Run under -race.
func TestConcurrentAdvanceCountRace(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(context.Background())
	ctx := context.Background()

	const views, steps = 8, 25
	var wg sync.WaitGroup
	errc := make(chan error, views)
	for i := 0; i < views; i++ {
		v, err := reg.Create(fmt.Sprintf("v%d", i), testDef(), testOpts(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		writerDone := make(chan struct{})
		wg.Add(3)
		go func() { // single writer
			defer wg.Done()
			defer close(writerDone)
			for s := 0; s < steps; s++ {
				k := int64(s + 1)
				for {
					_, err := v.Advance(ctx, []incshrink.Row{{k, int64(s)}}, []incshrink.Row{{k, int64(s)}})
					if err == nil {
						break
					}
					if !errors.Is(err, ErrBusy) {
						errc <- err
						return
					}
				}
			}
		}()
		for r := 0; r < 2; r++ { // concurrent readers
			go func() {
				defer wg.Done()
				for {
					select {
					case <-writerDone:
						return
					default:
					}
					v.CountWhere()
					if _, _, err := v.CountWhere(incshrink.Where{Col: "left.key", Cmp: incshrink.Gt, Val: 0}); err != nil {
						errc <- err
						return
					}
					v.Stats()
				}
			}()
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	for i := 0; i < views; i++ {
		v, err := reg.Get(fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if st := v.Stats(); st.Stats.Step != steps {
			t.Errorf("view v%d at step %d, want %d", i, st.Stats.Step, steps)
		}
	}
}
