package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

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
	if st.Stats.Step != steps || st.Serve.Advances != steps {
		t.Fatalf("step=%d advances=%d, want %d", st.Stats.Step, st.Serve.Advances, steps)
	}
	if st.Serve.Batches != steps/k {
		t.Fatalf("batches=%d, want %d", st.Serve.Batches, steps/k)
	}
}

// TestAdvanceBatchSizeCap pins the serve-layer batch bound: one atomic
// client batch may carry at most 512 steps (it holds the view mutex for its
// whole application), through the view and over HTTP.
func TestAdvanceBatchSizeCap(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(context.Background())
	v, err := reg.Create("v", testDef(), testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]incshrink.StepRows, 513)
	for i := range steps {
		steps[i] = incshrink.StepRows{Left: []incshrink.Row{{int64(i + 1), int64(i)}}}
	}
	if _, err := v.AdvanceBatch(context.Background(), steps); !errors.Is(err, incshrink.ErrInvalidArgument) {
		t.Fatalf("513-step batch: got %v, want ErrInvalidArgument", err)
	}
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	if code := doJSON(t, srv.Client(), "POST", srv.URL+"/v1/views/v/advance-batch", AdvanceBatchRequest{Steps: steps}, nil); code != 400 {
		t.Fatalf("513-step POST /advance-batch: %d, want 400", code)
	}
	if step, err := v.AdvanceBatch(context.Background(), steps[:512]); err != nil || step != 512 {
		t.Fatalf("512-step batch: step=%d err=%v", step, err)
	}
}

// TestCloseCreateRace is the lifecycle race-detector test: views registered
// while Close runs must either be closed too (every later upload fails with
// ErrClosed) or rejected with the typed ErrClosed — no view may escape the
// close and keep acknowledging uploads. Run under -race.
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
			if _, err := v.Advance(context.Background(), []incshrink.Row{{1, 0}}, nil); !errors.Is(err, ErrClosed) {
				t.Errorf("view %s was created during Close but still accepts uploads after Close returned: %v", v.name, err)
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
