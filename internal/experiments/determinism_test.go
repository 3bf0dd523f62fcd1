package experiments

import (
	"bytes"
	"testing"
)

// runReport regenerates every experiment from scratch (caches dropped) at
// the given worker count and returns the formatted report bytes.
func runReport(t *testing.T, workers int) string {
	t.Helper()
	ResetCaches()
	p := Params{Steps: 60, Seed: 7, Workers: workers}
	var buf bytes.Buffer
	for _, name := range Names() {
		if err := Registry[name](ctx, p, &buf); err != nil {
			t.Fatalf("%s at workers=%d: %v", name, workers, err)
		}
	}
	return buf.String()
}

// TestDeterministicAcrossWorkerCounts is the concurrency-determinism
// contract of the sweep engine: a fixed seed produces byte-identical tables
// and figure series whether the cells run sequentially or on a wide pool.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	sequential := runReport(t, 1)
	parallel := runReport(t, 8)
	if sequential != parallel {
		t.Fatalf("report differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			sequential, parallel)
	}
	if sequential == "" {
		t.Fatal("empty report")
	}
}

// TestSharedTraceDedup checks that every cell of a run sees the same
// generated trace object for one workload configuration.
func TestSharedTraceDedup(t *testing.T) {
	ResetCaches()
	p := Params{Steps: 40, Seed: 3}.WithDefaults()
	wl := datasets(p)[0].WL
	a, err := sharedTrace(wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sharedTrace(wl)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("sharedTrace regenerated the trace for an identical config")
	}
	wl2 := wl
	wl2.Seed++
	c, err := sharedTrace(wl2)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different workload configs shared a trace")
	}
}

// TestResultCacheHit checks that rerunning an experiment with identical
// parameters reuses memoized cell results (the second run must not simulate).
func TestResultCacheHit(t *testing.T) {
	ResetCaches()
	p := Params{Steps: 50, Seed: 11, Workers: 2}
	first, err := Table2(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	cacheMu.Lock()
	entries := len(resultCache)
	cacheMu.Unlock()
	second, err := Table2(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	cacheMu.Lock()
	after := len(resultCache)
	cacheMu.Unlock()
	if after != entries {
		t.Errorf("second identical run grew the result cache: %d -> %d", entries, after)
	}
	if FormatTable2(first) != FormatTable2(second) {
		t.Error("memoized rerun differs from original")
	}
}

// TestCellKeyExperimentAgnostic pins the property the result sharing relies
// on: a cell's key (and therefore its derived seed) depends only on the
// workload and parameter point, never on which experiment enumerated it.
func TestCellKeyExperimentAgnostic(t *testing.T) {
	p := Params{Steps: 40, Seed: 3}.WithDefaults()
	ds := datasets(p)[0]
	a := simCell{wl: ds.WL, kind: "DP-Timer", cfg: ds.Cfg}
	b := simCell{wl: ds.WL, kind: "DP-Timer", cfg: ds.Cfg}
	if a.key() != b.key() {
		t.Errorf("identical cells got different keys: %q vs %q", a.key(), b.key())
	}
	c := a
	c.cfg.Epsilon = 0.1
	if a.key() == c.key() {
		t.Error("cells at different epsilon share a key")
	}
}
