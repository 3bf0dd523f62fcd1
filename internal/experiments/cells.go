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
// report order; grid.run executes them concurrently and hands the results
// back in that same order, so tables and figures are byte-identical at any
// worker count.
type simCell struct {
	wl   workload.Config
	kind sim.EngineKind
	cfg  core.Config
}

// grid is one run's evaluation grid: its cells in report order and the fill
// that carries each cell's result to the points it plots. Each experiment
// adds its cells to the grid in one walk — one grid may hold several
// experiments — and run hands every result to its own cell's fill, in cell
// order. Nothing a run computes outlives it.
type grid struct {
	cells []simCell
	fills []func(sim.Result)
}

// cell appends one cell and the fill its result goes to.
func (g *grid) cell(wl workload.Config, kind sim.EngineKind, cfg core.Config, fill func(sim.Result)) {
	g.cells = append(g.cells, simCell{wl: wl, kind: kind, cfg: cfg})
	g.fills = append(g.fills, fill)
}

// run executes the cells across p.Workers workers (<= 0 means GOMAXPROCS)
// and fills their points. Every cell derives its protocol RNG seed from the
// run seed and its key, so a simulation is a pure function of its kind, its
// config with that seed, and its workload: run simulates each distinct such
// identity once, generates each distinct workload's trace once, and hands a
// repeated cell the result of its first occurrence.
func (g *grid) run(ctx context.Context, p Params) error {
	type identity struct {
		kind sim.EngineKind
		cfg  core.Config
		wl   workload.Config
	}
	// Traces are immutable once generated — engines only read them — so one
	// is shared by every cell of its workload under any worker count.
	traces := map[workload.Config]func() (*workload.Trace, error){}
	first := map[identity]int{}
	var sims []runner.Cell[sim.Result]
	of := make([]int, len(g.cells))
	for i, c := range g.cells {
		key := c.key()
		cfg := c.cfg
		cfg.Seed = runner.DeriveSeed(p.Seed, key)
		id := identity{kind: c.kind, cfg: cfg, wl: c.wl}
		j, ok := first[id]
		if !ok {
			trace, ok := traces[c.wl]
			if !ok {
				trace = sync.OnceValues(func() (*workload.Trace, error) { return workload.Generate(c.wl) })
				traces[c.wl] = trace
			}
			j = len(sims)
			first[id] = j
			sims = append(sims, runner.Cell[sim.Result]{
				Key: key,
				Run: func(context.Context) (sim.Result, error) {
					tr, err := trace()
					if err != nil {
						return sim.Result{}, err
					}
					return runKind(c.kind, cfg, tr)
				},
			})
		}
		of[i] = j
	}
	res, err := runner.Map(ctx, sims, p.Workers)
	if err != nil {
		return err
	}
	for i, j := range of {
		g.fills[i](res[j])
	}
	return nil
}

// key canonically names the cell by its workload and the parameters the
// paper's sweeps vary. The key drives per-cell seed derivation and error
// reporting, so it deliberately does not mention which experiment enumerated
// the cell: Table 2 and Figure 4 evaluate the same cells and, in one run,
// share results.
// The literal "raw=false" is the flag every cell always printed — EP's raw
// delta follows from its protocol, never from a cell's config — kept so that
// every cell's seed, and with it every golden, stays byte-identical.
func (c simCell) key() string {
	return fmt.Sprintf("%s|%s|eps=%g|omega=%d|b=%d|T=%d|theta=%g|raw=false",
		c.wl.Name, c.kind, c.cfg.Epsilon, c.cfg.Omega, c.cfg.Budget, c.cfg.T, c.cfg.Theta)
}

// runKind is the cell execution function, sim.RunKind in production. The
// crash-recovery golden test swaps it for a wrapper that snapshots and
// restores every framework engine mid-run, re-deriving the same reports
// through a restart; no result outlives the run that computed it, so a swap
// between runs takes effect on the next one.
var runKind = sim.RunKind
