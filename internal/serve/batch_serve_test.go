package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"incshrink"
)

// TestViewAdvanceBatchMatchesSequential drives one view with 7-step batches
// and checks the result is identical to a bare sequential DB fed the same
// steps one at a time — the serving-layer face of the AdvanceBatch
// equivalence contract.
func TestViewAdvanceBatchMatchesSequential(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(context.Background())
	v, err := reg.Create("v", testDef(), testOpts(11))
	if err != nil {
		t.Fatal(err)
	}
	db, err := incshrink.Open(testDef(), testOpts(11))
	if err != nil {
		t.Fatal(err)
	}

	const steps, k = 42, 7
	ctx := context.Background()
	var batch []incshrink.StepRows
	for s := 0; s < steps; s++ {
		key := int64(s + 1)
		st := incshrink.StepRows{
			Left:  []incshrink.Row{{key, int64(s)}},
			Right: []incshrink.Row{{key, int64(s + 1)}},
		}
		if err := db.Advance(st.Left, st.Right); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, st)
		if len(batch) == k {
			step, err := v.AdvanceBatch(ctx, batch)
			if err != nil {
				t.Fatal(err)
			}
			if step != s+1 {
				t.Fatalf("batch ack step %d after %d steps", step, s+1)
			}
			batch = batch[:0]
		}
	}
	want, _ := db.Count()
	got, _, _ := v.CountWhere()
	if got != want {
		t.Fatalf("batched count %d != sequential %d", got, want)
	}
	st := v.Stats()
	if st.DB.Step != steps || st.Serve.Advances != steps {
		t.Fatalf("step=%d advances=%d, want %d", st.DB.Step, st.Serve.Advances, steps)
	}
	if st.Serve.Batches != steps/k {
		t.Fatalf("batches=%d, want %d", st.Serve.Batches, steps/k)
	}
}

// stallIngest parks v's ingest loop deterministically: the caller occupies
// the registry's only worker slot (the registry must use IngestWorkers: 1),
// one upload is submitted, and stallIngest returns once the loop holds the
// view mutex — i.e. it is past its coalescing drain and blocked on the
// semaphore, so every later upload stays queued in admission order until
// the slot is released with <-reg.sem.
func stallIngest(t *testing.T, reg *Registry, v *View, first incshrink.StepRows, done chan<- error) {
	t.Helper()
	reg.sem <- struct{}{}
	go func() {
		_, err := v.Advance(context.Background(), first.Left, first.Right)
		done <- err
	}()
	waitFor(t, func() bool {
		if v.mu.TryLock() {
			v.mu.Unlock()
			return false
		}
		return true
	})
}

// TestMailboxCoalescing backs the ingest loop up behind the worker-pool
// semaphore, queues single-step uploads, and verifies they drain in fewer
// engine batches than uploads — with counts identical to a sequential
// replay of the same steps.
func TestMailboxCoalescing(t *testing.T) {
	reg := NewRegistry(Config{MailboxDepth: 16, IngestBatch: 8, IngestWorkers: 1})
	defer reg.Close(context.Background())
	v, err := reg.Create("v", testDef(), testOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	db, err := incshrink.Open(testDef(), testOpts(5))
	if err != nil {
		t.Fatal(err)
	}

	const n = 10
	ctx := context.Background()
	step := func(i int) incshrink.StepRows {
		key := int64(i + 1)
		return incshrink.StepRows{Left: []incshrink.Row{{key, int64(i)}}, Right: []incshrink.Row{{key, int64(i)}}}
	}
	done := make(chan error, n)
	stallIngest(t, reg, v, step(0), done)
	for i := 1; i < n; i++ {
		st := step(i)
		go func() {
			_, err := v.Advance(ctx, st.Left, st.Right)
			done <- err
		}()
		// Admit in order so the coalesced sequence matches the replay.
		waitFor(t, func() bool { return len(v.mailbox) == i })
	}
	<-reg.sem // release the worker slot: the backlog drains coalesced
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatalf("queued upload failed: %v", err)
		}
	}
	for i := 0; i < n; i++ {
		st := step(i)
		if err := db.Advance(st.Left, st.Right); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := db.Count()
	got, _, _ := v.CountWhere()
	if got != want {
		t.Fatalf("coalesced count %d != sequential %d", got, want)
	}
	st := v.Stats()
	if st.Serve.Advances != n {
		t.Fatalf("advances=%d, want %d", st.Serve.Advances, n)
	}
	// The drain is deterministic here: the stalled first upload applies
	// alone, then the 9 queued steps coalesce as 8 (the IngestBatch bound)
	// plus 1.
	if st.Serve.Batches != 3 {
		t.Fatalf("batches=%d for %d uploads, want 3 (1 + 8 + 1 coalesced)", st.Serve.Batches, n)
	}
}

// TestCoalescedBatchIsolatesFailure queues a poisoned upload between good
// ones: the coalesced AdvanceBatch trips, the fallback applies requests
// individually, and only the offender fails.
func TestCoalescedBatchIsolatesFailure(t *testing.T) {
	opts := incshrink.Options{Seed: 1, MaxLeft: 2, MaxRight: 2}
	reg := NewRegistry(Config{MailboxDepth: 16, IngestBatch: 8, IngestWorkers: 1})
	defer reg.Close(context.Background())
	v, err := reg.Create("v", testDef(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Stall the loop behind a decoy so the three requests after it coalesce
	// deterministically into one engine batch.
	results := make(chan error, 4)
	stallIngest(t, reg, v, incshrink.StepRows{Left: []incshrink.Row{{1, 0}}}, results)
	send := func(left []incshrink.Row) {
		go func() {
			_, err := v.Advance(ctx, left, nil)
			results <- err
		}()
	}
	send([]incshrink.Row{{2, 0}})
	waitFor(t, func() bool { return len(v.mailbox) == 1 })
	send([]incshrink.Row{{3, 0}, {4, 0}, {5, 0}}) // exceeds MaxLeft=2
	waitFor(t, func() bool { return len(v.mailbox) == 2 })
	send([]incshrink.Row{{6, 0}})
	waitFor(t, func() bool { return len(v.mailbox) == 3 })
	<-reg.sem

	var failed, applied int
	for i := 0; i < 4; i++ {
		switch err := <-results; {
		case err == nil:
			applied++
		case errors.Is(err, incshrink.ErrInvalidArgument):
			failed++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if applied != 3 || failed != 1 {
		t.Fatalf("applied=%d failed=%d, want 3/1", applied, failed)
	}
	st := v.Stats()
	if st.DB.Step != 3 || st.Serve.Failed != 1 {
		t.Fatalf("step=%d failed=%d, want 3/1", st.DB.Step, st.Serve.Failed)
	}
}

// TestAdvanceBatchSizeCap pins the serve-layer batch bound: one atomic
// client batch may not exceed Config.MaxBatchSteps (it would hold the view
// mutex and a worker slot for its whole application).
func TestAdvanceBatchSizeCap(t *testing.T) {
	reg := NewRegistry(Config{MaxBatchSteps: 4})
	defer reg.Close(context.Background())
	v, err := reg.Create("v", testDef(), testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]incshrink.StepRows, 5)
	for i := range steps {
		steps[i] = incshrink.StepRows{Left: []incshrink.Row{{int64(i + 1), int64(i)}}}
	}
	if _, err := v.AdvanceBatch(context.Background(), steps); !errors.Is(err, incshrink.ErrInvalidArgument) {
		t.Fatalf("oversized batch: got %v, want ErrInvalidArgument", err)
	}
	if step, err := v.AdvanceBatch(context.Background(), steps[:4]); err != nil || step != 4 {
		t.Fatalf("at-cap batch: step=%d err=%v", step, err)
	}
}

// TestBackpressureHighWater pins the depth-aware admission policy: uploads
// are admitted until the queued step count reaches HighWater (below the
// mailbox capacity), and the rejection is a typed BusyError carrying the
// observed depth and a positive retry hint.
func TestBackpressureHighWater(t *testing.T) {
	reg := NewRegistry(Config{MailboxDepth: 8, HighWater: 2, IngestWorkers: 1})
	defer reg.Close(context.Background())
	v, err := reg.Create("v", testDef(), testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	row := []incshrink.Row{{1, 0}}

	done := make(chan error, 3)
	enqueue := func() {
		go func() {
			_, err := v.Advance(ctx, row, nil)
			done <- err
		}()
	}
	// First upload in flight (parked on the worker slot the test holds),
	// two more queued: depth 2.
	stallIngest(t, reg, v, incshrink.StepRows{Left: row}, done)
	enqueue()
	waitFor(t, func() bool { return int(v.depth.Load()) == 1 })
	enqueue()
	waitFor(t, func() bool { return int(v.depth.Load()) == 2 })

	// Depth 2 == HighWater: reject, even though the mailbox (capacity 8)
	// has plenty of slots.
	_, err = v.Advance(ctx, row, nil)
	var be *BusyError
	if !errors.Is(err, ErrBusy) || !errors.As(err, &be) {
		t.Fatalf("past high water: got %v, want BusyError", err)
	}
	if be.Depth < 2 {
		t.Errorf("BusyError.Depth = %d, want >= 2", be.Depth)
	}
	if be.RetryAfter <= 0 {
		t.Errorf("BusyError.RetryAfter = %v, want positive", be.RetryAfter)
	}
	if s := RetryAfterSeconds(err); s < 1 {
		t.Errorf("RetryAfterSeconds = %d, want >= 1", s)
	}
	<-reg.sem
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Errorf("admitted upload failed: %v", err)
		}
	}
}

// TestRetryAfterSecondsFallback covers the untyped path.
func TestRetryAfterSecondsFallback(t *testing.T) {
	if s := RetryAfterSeconds(ErrBusy); s != 1 {
		t.Errorf("bare ErrBusy: %d, want 1", s)
	}
	be := &BusyError{Depth: 5, RetryAfter: 2500 * time.Millisecond}
	if s := RetryAfterSeconds(fmt.Errorf("wrapped: %w", be)); s != 3 {
		t.Errorf("2.5s hint: %d, want 3 (rounded up)", s)
	}
}

// TestCloseCreateRace is the lifecycle race-detector test: views registered
// while Close is draining must either be drained too (their ingest loop
// exits before Close returns) or rejected with the typed ErrClosed — no
// ingest goroutine may escape the drain and leak. Run under -race.
func TestCloseCreateRace(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		reg := NewRegistry(Config{})
		const racers = 16
		var wg sync.WaitGroup
		created := make(chan *View, racers)
		start := make(chan struct{})
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				v, err := reg.Create(fmt.Sprintf("v%d", i), testDef(), testOpts(int64(i+1)))
				switch {
				case err == nil:
					created <- v
				case errors.Is(err, ErrClosed):
				default:
					t.Errorf("create v%d: %v", i, err)
				}
			}(i)
		}
		close(start)
		if err := reg.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(created)
		for v := range created {
			select {
			case <-v.loopDone:
			default:
				t.Fatalf("view %s was created during Close but its ingest loop is still running after Close returned", v.name)
			}
			if _, err := v.Advance(context.Background(), []incshrink.Row{{1, 0}}, nil); !errors.Is(err, ErrClosed) {
				t.Errorf("view %s: advance after close: %v", v.name, err)
			}
		}
	}
}

// TestRegistryConcurrentLifecycle hammers Create/Get/Drop/Names/Len across
// many names concurrently — the registry's race test (run under -race; also
// exercises that distinct names never corrupt each other's lifecycle).
func TestRegistryConcurrentLifecycle(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(context.Background())
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", i)
			for round := 0; round < 3; round++ {
				v, err := reg.Create(name, testDef(), testOpts(int64(i+1)))
				if err != nil {
					errc <- fmt.Errorf("%s round %d create: %w", name, round, err)
					return
				}
				if _, err := v.Advance(context.Background(), []incshrink.Row{{int64(i), 0}}, nil); err != nil {
					errc <- fmt.Errorf("%s round %d advance: %w", name, round, err)
					return
				}
				if _, err := reg.Get(name); err != nil {
					errc <- fmt.Errorf("%s round %d get: %w", name, round, err)
					return
				}
				reg.Names()
				reg.Len()
				if err := reg.Drop(name); err != nil {
					errc <- fmt.Errorf("%s round %d drop: %w", name, round, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if n := reg.Len(); n != 0 {
		t.Errorf("registry not empty after drops: %d", n)
	}
}
