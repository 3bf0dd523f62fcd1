package experiments

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"incshrink/internal/core"
	"incshrink/internal/sim"
	"incshrink/internal/workload"
)

// runReport regenerates every experiment, one grid, at the given worker
// count and returns the formatted report bytes.
func runReport(t *testing.T, workers int) string {
	t.Helper()
	p := Params{Steps: 60, Seed: 7, Workers: workers}
	var buf bytes.Buffer
	if err := RunAll(ctx, p, &buf); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
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

// countingRunKind swaps runKind for one that counts each simulation by its
// (kind, config with derived seed, workload) identity and records which
// trace objects each workload's cells were handed. The returned function
// restores sim.RunKind.
func countingRunKind() (sims map[identity]int, traces map[workload.Config]map[*workload.Trace]bool, restore func()) {
	var mu sync.Mutex
	sims = map[identity]int{}
	traces = map[workload.Config]map[*workload.Trace]bool{}
	runKind = func(kind sim.EngineKind, cfg core.Config, tr *workload.Trace) (sim.Result, error) {
		mu.Lock()
		sims[identity{kind: kind, cfg: cfg, wl: tr.Config}]++
		if traces[tr.Config] == nil {
			traces[tr.Config] = map[*workload.Trace]bool{}
		}
		traces[tr.Config][tr] = true
		mu.Unlock()
		return sim.RunKind(kind, cfg, tr)
	}
	return sims, traces, func() { runKind = sim.RunKind }
}

type identity struct {
	kind sim.EngineKind
	cfg  core.Config
	wl   workload.Config
}

// TestSharedTraceDedup checks that one RunAll generates each distinct
// workload's trace once: every cell of a workload is handed the same trace
// object, and cells of different workloads never share one.
func TestSharedTraceDedup(t *testing.T) {
	_, traces, restore := countingRunKind()
	defer restore()

	p := Params{Steps: 40, Seed: 3, Workers: 2}
	var g grid
	for _, name := range Names() {
		reports[name](&g, p.WithDefaults())
	}
	workloads := map[workload.Config]bool{}
	for _, c := range g.cells {
		workloads[c.wl] = true
	}
	if err := RunAll(ctx, p, io.Discard); err != nil {
		t.Fatal(err)
	}
	if len(traces) != len(workloads) {
		t.Errorf("cells saw traces of %d workloads, the grid has %d", len(traces), len(workloads))
	}
	seen := map[*workload.Trace]workload.Config{}
	for wl, trs := range traces {
		if len(trs) != 1 {
			t.Errorf("workload %s generated %d traces in one run, want 1", wl.Name, len(trs))
		}
		for tr := range trs {
			if other, ok := seen[tr]; ok {
				t.Errorf("workloads %s and %s shared a trace", other.Name, wl.Name)
			}
			seen[tr] = wl
		}
	}
}

// TestResultCacheHit checks the result sharing within a run: one RunAll adds
// 180 cells and simulates each of their 162 distinct (kind, config with its
// derived seed, workload) identities exactly once, handing a repeated cell
// the first one's result. Nothing is kept between runs: two further Table2
// calls in the same process each simulate all 10 of their cells again, and
// give byte-identical tables.
func TestResultCacheHit(t *testing.T) {
	sims, _, restore := countingRunKind()
	defer restore()

	p := Params{Steps: 40, Seed: 3, Workers: 2}
	var g grid
	for _, name := range Names() {
		reports[name](&g, p.WithDefaults())
	}
	if len(g.cells) != 180 {
		t.Fatalf("the seven experiments add %d cells, want 180", len(g.cells))
	}
	if err := RunAll(ctx, p, io.Discard); err != nil {
		t.Fatal(err)
	}
	if len(sims) != 162 {
		t.Errorf("RunAll simulated %d distinct cells, want 162", len(sims))
	}
	for id, n := range sims {
		if n != 1 {
			t.Errorf("RunAll simulated %s %s at epsilon %g %d times", id.wl.Name, id.kind, id.cfg.Epsilon, n)
		}
	}

	var tables [2]string
	for run := range tables {
		clear(sims)
		res, err := Table2(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		tables[run] = FormatTable2(res)
		total := 0
		for _, n := range sims {
			total += n
		}
		if total != 10 {
			t.Errorf("Table2 call %d simulated %d cells, want all 10", run+1, total)
		}
	}
	if tables[0] != tables[1] {
		t.Error("a rerun of Table2 with identical parameters differs from the first")
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
