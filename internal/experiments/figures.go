package experiments

import (
	"context"
	"fmt"

	"incshrink/internal/core"
	"incshrink/internal/sim"
	"incshrink/internal/workload"
)

// dpKinds are the two DP protocols the parameter sweeps compare.
var dpKinds = []sim.EngineKind{sim.KindTimer, sim.KindANT}

// add appends one point of the kind's series.
func (f *Figure) add(kind sim.EngineKind, x, y float64) {
	f.Points = append(f.Points, Point{Series: string(kind), X: x, Y: y})
}

// figures are one experiment's panels in report order; its cells' fills
// write their points.
type figures []*Figure

// panel appends an empty figure and returns it for fills.
func (fs *figures) panel(id, title, xLabel, yLabel string) *Figure {
	f := &Figure{ID: id, Title: title, XLabel: xLabel, YLabel: yLabel}
	*fs = append(*fs, f)
	return f
}

// values returns the panels as their fills left them.
func (fs figures) values() []Figure {
	out := make([]Figure, len(fs))
	for i, f := range fs {
		out[i] = *f
	}
	return out
}

// Figure4 reproduces the end-to-end comparison scatter: average L1 error (x)
// against average QET (y) for all five candidates, one figure per dataset.
// Its cells are exactly Table 2's, so in one run with Table 2 (RunAll) they
// are simulated once; run alone, it simulates them itself.
func Figure4(ctx context.Context, p Params) ([]Figure, error) { return runGrid(ctx, p, figure4) }

func figure4(g *grid, p Params) func() []Figure {
	var figs figures
	for _, ds := range datasets(p) {
		fig := figs.panel("fig4-"+ds.Label, "End-to-end comparison ("+ds.Label+")", "avg L1 error", "avg QET (s)")
		for _, kind := range sim.AllKinds {
			g.cell(ds.WL, kind, ds.Cfg, func(r sim.Result) { fig.add(kind, r.AvgL1, r.AvgQET) })
		}
	}
	return figs.values
}

// EpsilonSweep is the paper's privacy-parameter grid for Figure 5.
var EpsilonSweep = []float64{0.01, 0.05, 0.1, 0.5, 1, 1.5, 5, 10, 50}

// Figure5 reproduces the 3-way trade-off: L1 error and QET as epsilon sweeps
// from 0.01 to 50, for both DP protocols on both datasets (four panels).
func Figure5(ctx context.Context, p Params) ([]Figure, error) { return runGrid(ctx, p, figure5) }

func figure5(g *grid, p Params) func() []Figure {
	var figs figures
	for _, ds := range datasets(p) {
		acc := figs.panel("fig5-accuracy-"+ds.Label, "Privacy vs. accuracy ("+ds.Label+")", "epsilon", "avg L1 error")
		eff := figs.panel("fig5-efficiency-"+ds.Label, "Privacy vs. efficiency ("+ds.Label+")", "epsilon", "avg QET (s)")
		for _, eps := range EpsilonSweep {
			cfg := ds.Cfg
			cfg.Epsilon = eps
			for _, kind := range dpKinds {
				g.cell(ds.WL, kind, cfg, func(r sim.Result) {
					acc.add(kind, eps, r.AvgL1)
					eff.add(kind, eps, r.AvgQET)
				})
			}
		}
	}
	return figs.values
}

// Figure6 reproduces the workload-type comparison: L1 error and QET on
// Sparse / Standard / Burst variants (x encoded as 0/1/2).
func Figure6(ctx context.Context, p Params) ([]Figure, error) { return runGrid(ctx, p, figure6) }

func figure6(g *grid, p Params) func() []Figure {
	var figs figures
	for _, ds := range datasets(p) {
		acc := figs.panel("fig6-accuracy-"+ds.Label,
			"Workload type vs. accuracy ("+ds.Label+"; x: 0=Sparse 1=Standard 2=Burst)", "workload type", "avg L1 error")
		eff := figs.panel("fig6-efficiency-"+ds.Label, "Workload type vs. efficiency ("+ds.Label+")", "workload type", "avg QET (s)")
		for x, wl := range []workload.Config{workload.Sparse(ds.WL), ds.WL, workload.Burst(ds.WL)} {
			for _, kind := range dpKinds {
				g.cell(wl, kind, ds.Cfg, func(r sim.Result) {
					acc.add(kind, float64(x), r.AvgL1)
					eff.add(kind, float64(x), r.AvgQET)
				})
			}
		}
	}
	return figs.values
}

// TSweep is the non-privacy parameter grid of Figure 7 (T from 1 to 100;
// theta set to rate*T as in the paper).
var TSweep = []int{1, 2, 5, 10, 20, 50, 100}

// Figure7Epsilons are the three privacy levels of Figure 7.
var Figure7Epsilons = []float64{0.1, 1, 10}

// Figure7 compares the protocols while sweeping T (and correspondingly
// theta) at three privacy levels: each panel is a QET-vs-L1 scatter.
func Figure7(ctx context.Context, p Params) ([]Figure, error) { return runGrid(ctx, p, figure7) }

func figure7(g *grid, p Params) func() []Figure {
	var figs figures
	for _, ds := range datasets(p) {
		for _, eps := range Figure7Epsilons {
			fig := figs.panel(fmt.Sprintf("fig7-%s-eps%g", ds.Label, eps),
				fmt.Sprintf("T/theta sweep (%s, eps=%g)", ds.Label, eps), "avg L1 error", "avg QET (s)")
			for _, T := range TSweep {
				cfg := ds.Cfg
				cfg.Epsilon = eps
				cfg.T = T
				cfg.Theta = ds.WL.PairRate * float64(T)
				for _, kind := range dpKinds {
					g.cell(ds.WL, kind, cfg, func(r sim.Result) { fig.add(kind, r.AvgL1, r.AvgQET) })
				}
			}
		}
	}
	return figs.values
}

// OmegaSweep is the truncation-bound grid of Figure 8.
var OmegaSweep = []int{2, 4, 8, 16, 24, 32}

// Figure8 evaluates the effect of the truncation bound on the CPDB workload
// (Q2), with b = 2*omega as in the paper: accuracy, QET, and the per-phase
// protocol times.
func Figure8(ctx context.Context, p Params) ([]Figure, error) { return runGrid(ctx, p, figure8) }

func figure8(g *grid, p Params) func() []Figure {
	ds := datasets(p)[1] // CPDB
	var figs figures
	const x = "truncation bound omega"
	acc := figs.panel("fig8-accuracy", "Query accuracy vs omega (CPDB)", x, "avg L1 error")
	eff := figs.panel("fig8-qet", "Query efficiency vs omega (CPDB)", x, "avg QET (s)")
	trf := figs.panel("fig8-transform", "Avg Transform execution time vs omega (CPDB)", x, "avg time (s)")
	shr := figs.panel("fig8-shrink", "Avg Shrink execution time vs omega (CPDB)", x, "avg time (s)")
	for _, omega := range OmegaSweep {
		cfg := ds.Cfg
		cfg.Omega = omega
		cfg.Budget = 2 * omega
		for _, kind := range dpKinds {
			g.cell(ds.WL, kind, cfg, func(r sim.Result) {
				acc.add(kind, float64(omega), r.AvgL1)
				eff.add(kind, float64(omega), r.AvgQET)
				trf.add(kind, float64(omega), r.AvgTransformSecs)
				shr.add(kind, float64(omega), r.AvgShrinkSecs)
			})
		}
	}
	return figs.values
}

// ScaleSweep is the data-scaling grid of Figure 9.
var ScaleSweep = []float64{0.5, 1, 2, 4}

// Figure9 reproduces the scaling experiment: total MPC time (Transform +
// Shrink) and total query time at 50%, 1x, 2x and 4x data scale.
func Figure9(ctx context.Context, p Params) ([]Figure, error) { return runGrid(ctx, p, figure9) }

func figure9(g *grid, p Params) func() []Figure {
	var figs figures
	for _, ds := range datasets(p) {
		mpcFig := figs.panel("fig9-mpc-"+ds.Label, "Total MPC time vs data scale ("+ds.Label+")", "scale factor", "total MPC time (s)")
		qFig := figs.panel("fig9-query-"+ds.Label, "Total query time vs data scale ("+ds.Label+")", "scale factor", "total query time (s)")
		for _, factor := range ScaleSweep {
			wl := workload.Scale(ds.WL, factor)
			cfg := core.DefaultConfig(wl, p.Seed)
			cfg.T = ds.Cfg.T
			for _, kind := range dpKinds {
				g.cell(wl, kind, cfg, func(r sim.Result) {
					mpcFig.add(kind, factor, r.TotalMPCSecs)
					qFig.add(kind, factor, r.TotalQuerySecs)
				})
			}
		}
	}
	return figs.values
}
