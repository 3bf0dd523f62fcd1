package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(7)
	g.Set(5)
	if got := g.s.val.Load(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("neg_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	c.Add(-1)
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "help")
	b := r.Counter("same_total", "help")
	a.Inc()
	b.Inc()
	if got := a.Value(); got != 2 {
		t.Fatalf("re-registered counter should share state; value = %v, want 2", got)
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering clash as a gauge did not panic")
		}
	}()
	r.Gauge("clash", "help")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.s.sum.Load(); got != 102.565 {
		t.Fatalf("sum = %v, want 102.565", got)
	}
	// 0.005 and 0.01 land in le=0.01 (bounds are inclusive upper), 0.05 in
	// le=0.1, 0.5 in le=1, 2 and 100 in +Inf.
	want := []uint64{2, 1, 1, 2}
	for i, w := range want {
		if got := h.s.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	h.ObserveDuration(50 * time.Millisecond)
	if got := h.s.counts[1].Load(); got != 2 {
		t.Fatalf("ObserveDuration(50ms) should land in le=0.1; bucket = %d, want 2", got)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets(0, 2, 3) did not panic")
		}
	}()
	ExpBuckets(0, 2, 3)
}

func TestVecSeriesAndDelete(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("ops", "ops", "op")
	v.With("read").Set(1)
	v.With("write").Set(3)
	text := r.DumpText()
	if !strings.Contains(text, `ops{op="read"} 1`) || !strings.Contains(text, `ops{op="write"} 3`) {
		t.Fatalf("exposition missing series:\n%s", text)
	}
	v.Delete("write")
	if text := r.DumpText(); strings.Contains(text, `op="write"`) {
		t.Fatalf("deleted series still exposed:\n%s", text)
	}
}

func TestVecWrongArity(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("arity", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("With with one value for two labels did not panic")
		}
	}()
	v.With("only-one")
}

func TestOnGatherRunsBeforeRender(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("derived", "")
	r.OnGather(func() { g.Set(42) })
	if text := r.DumpText(); !strings.Contains(text, "derived 42") {
		t.Fatalf("OnGather hook did not run before render:\n%s", text)
	}
}

func TestConcurrentCounterAdds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("concurrent adds lost updates: %v, want 8000", got)
	}
}
