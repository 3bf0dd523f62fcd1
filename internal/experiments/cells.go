package experiments

import (
	"context"
	"fmt"
	"sync"

	"incshrink/internal/core"
	"incshrink/internal/runner"
	"incshrink/internal/sim"
	"incshrink/internal/workload"
)

// simCell is one independent unit of the evaluation grid: a (workload,
// engine kind, parameter point) tuple. Experiments enumerate their cells in
// report order; runCells executes them concurrently and hands the results
// back in that same order, so tables and figures are byte-identical at any
// worker count.
type simCell struct {
	wl   workload.Config
	kind sim.EngineKind
	cfg  core.Config
}

// grid is one experiment's evaluation grid: its cells in report order, the
// fill that carries each cell's result to the points it plots, and the
// figures those fills write. An experiment builds it in one walk — each
// figure before the fills that capture it — and run hands every result to
// its own cell's fill, in cell order.
type grid struct {
	cells []simCell
	fills []func(sim.Result)
	figs  []*Figure
}

// figure appends an empty figure to the report and returns it for fills.
func (g *grid) figure(id, title, xLabel, yLabel string) *Figure {
	f := &Figure{ID: id, Title: title, XLabel: xLabel, YLabel: yLabel}
	g.figs = append(g.figs, f)
	return f
}

// cell appends one cell and the fill its result goes to.
func (g *grid) cell(wl workload.Config, kind sim.EngineKind, cfg core.Config, fill func(sim.Result)) {
	g.cells = append(g.cells, simCell{wl: wl, kind: kind, cfg: cfg})
	g.fills = append(g.fills, fill)
}

// run executes the cells and fills their points.
func (g *grid) run(ctx context.Context, p Params) error {
	res, err := runCells(ctx, p, g.cells)
	if err != nil {
		return err
	}
	for i, r := range res {
		g.fills[i](r)
	}
	return nil
}

// figures runs the grid and returns its filled figures.
func (g *grid) figures(ctx context.Context, p Params) ([]Figure, error) {
	if err := g.run(ctx, p); err != nil {
		return nil, err
	}
	figs := make([]Figure, len(g.figs))
	for i, f := range g.figs {
		figs[i] = *f
	}
	return figs, nil
}

// key canonically names the cell by its workload and the parameters the
// paper's sweeps vary. The key drives per-cell seed derivation and error
// reporting, so it deliberately does not mention which experiment enumerated
// the cell: Table 2 and Figure 4 evaluate the same cells and share results.
// The literal "raw=false" is the flag every cell always printed — EP's raw
// delta follows from its protocol, never from a cell's config — kept so that
// every cell's seed, and with it every golden, stays byte-identical.
func (c simCell) key() string {
	return fmt.Sprintf("%s|%s|eps=%g|omega=%d|b=%d|T=%d|theta=%g|raw=false",
		c.wl.Name, c.kind, c.cfg.Epsilon, c.cfg.Omega, c.cfg.Budget, c.cfg.T, c.cfg.Theta)
}

// runCells executes the cells across p.Workers workers (<= 0 means
// GOMAXPROCS). Every cell derives its own protocol RNG seed from the run
// seed and the cell key, shares one generated trace per workload
// configuration, and memoizes its result, so a run never simulates the same
// fully specified cell twice in one process.
func runCells(ctx context.Context, p Params, cells []simCell) ([]sim.Result, error) {
	rc := make([]runner.Cell[sim.Result], len(cells))
	for i, c := range cells {
		key := c.key()
		rc[i] = runner.Cell[sim.Result]{
			Key: key,
			Run: func(context.Context) (sim.Result, error) {
				cfg := c.cfg
				cfg.Seed = runner.DeriveSeed(p.Seed, key)
				return cachedRun(c.kind, cfg, c.wl)
			},
		}
	}
	return runner.Map(ctx, rc, p.Workers)
}

// The process-wide memoization behind runCells. Entries carry a sync.Once so
// concurrent cells requesting the same trace or result compute it exactly
// once while the map mutex stays uncontended during the computation. The
// grids are finite, so the maps stay small; resetCaches drops them (tests).
var (
	cacheMu     sync.Mutex
	traceCache  = map[workload.Config]*traceEntry{}
	resultCache = map[resultKey]*resultEntry{}
)

type traceEntry struct {
	once sync.Once
	tr   *workload.Trace
	err  error
}

type resultKey struct {
	kind sim.EngineKind
	cfg  core.Config
	wl   workload.Config
}

type resultEntry struct {
	once sync.Once
	res  sim.Result
	err  error
}

// sharedTrace generates the trace for a workload configuration exactly once
// per process and shares it across all cells and experiments. Traces are
// immutable once generated — engines only read them — so sharing is safe
// under any worker count.
func sharedTrace(wl workload.Config) (*workload.Trace, error) {
	cacheMu.Lock()
	e, ok := traceCache[wl]
	if !ok {
		e = new(traceEntry)
		traceCache[wl] = e
	}
	cacheMu.Unlock()
	e.once.Do(func() { e.tr, e.err = workload.Generate(wl) })
	return e.tr, e.err
}

// cachedRun memoizes sim.RunKind per fully specified cell. A simulation is a
// pure function of (kind, cfg, workload) — cfg embeds the derived seed — so
// a cache hit is byte-identical to a rerun.
func cachedRun(kind sim.EngineKind, cfg core.Config, wl workload.Config) (sim.Result, error) {
	key := resultKey{kind: kind, cfg: cfg, wl: wl}
	cacheMu.Lock()
	e, ok := resultCache[key]
	if !ok {
		e = new(resultEntry)
		resultCache[key] = e
	}
	cacheMu.Unlock()
	e.once.Do(func() {
		tr, err := sharedTrace(wl)
		if err != nil {
			e.err = err
			return
		}
		e.res, e.err = runKind(kind, cfg, tr)
	})
	return e.res, e.err
}

// runKind is the cell execution function, sim.RunKind in production. The
// crash-recovery golden test swaps it for a wrapper that snapshots and
// restores every framework engine mid-run, re-deriving the same reports
// through a restart (callers that swap it must ResetCaches around the swap —
// the result cache is keyed by cell, not by execution function).
var runKind = sim.RunKind

// ResetCaches drops every memoized trace and result, forcing the next run
// to simulate from scratch (used by determinism tests and benchmarks that
// must measure true recomputation).
func ResetCaches() {
	cacheMu.Lock()
	traceCache = map[workload.Config]*traceEntry{}
	resultCache = map[resultKey]*resultEntry{}
	cacheMu.Unlock()
}
