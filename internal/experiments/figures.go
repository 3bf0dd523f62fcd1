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

// Figure4 reproduces the end-to-end comparison scatter: average L1 error (x)
// against average QET (y) for all five candidates, one figure per dataset.
// Its cells are exactly Table 2's, so after a Table2 run they are free.
func Figure4(ctx context.Context, p Params) ([]Figure, error) {
	p = p.WithDefaults()
	dss := datasets(p)
	res, err := runCells(ctx, p, comparisonCells(dss))
	if err != nil {
		return nil, err
	}
	var figs []Figure
	i := 0
	for _, ds := range dss {
		fig := Figure{
			ID:     "fig4-" + ds.Label,
			Title:  "End-to-end comparison (" + ds.Label + ")",
			XLabel: "avg L1 error",
			YLabel: "avg QET (s)",
		}
		for _, kind := range sim.AllKinds {
			r := res[i]
			i++
			fig.Points = append(fig.Points, Point{Series: string(kind), X: r.AvgL1, Y: r.AvgQET})
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// EpsilonSweep is the paper's privacy-parameter grid for Figure 5.
var EpsilonSweep = []float64{0.01, 0.05, 0.1, 0.5, 1, 1.5, 5, 10, 50}

// Figure5 reproduces the 3-way trade-off: L1 error and QET as epsilon sweeps
// from 0.01 to 50, for both DP protocols on both datasets (four panels).
func Figure5(ctx context.Context, p Params) ([]Figure, error) {
	p = p.WithDefaults()
	dss := datasets(p)
	var cells []simCell
	for _, ds := range dss {
		for _, eps := range EpsilonSweep {
			cfg := ds.Cfg
			cfg.Epsilon = eps
			cfg.SpillPerUpdate = core.SpillBound(cfg, ds.WL)
			for _, kind := range dpKinds {
				cells = append(cells, simCell{wl: ds.WL, kind: kind, cfg: cfg})
			}
		}
	}
	res, err := runCells(ctx, p, cells)
	if err != nil {
		return nil, err
	}
	var figs []Figure
	i := 0
	for _, ds := range dss {
		acc := Figure{
			ID:     "fig5-accuracy-" + ds.Label,
			Title:  "Privacy vs. accuracy (" + ds.Label + ")",
			XLabel: "epsilon",
			YLabel: "avg L1 error",
		}
		eff := Figure{
			ID:     "fig5-efficiency-" + ds.Label,
			Title:  "Privacy vs. efficiency (" + ds.Label + ")",
			XLabel: "epsilon",
			YLabel: "avg QET (s)",
		}
		for _, eps := range EpsilonSweep {
			for _, kind := range dpKinds {
				r := res[i]
				i++
				acc.Points = append(acc.Points, Point{Series: string(kind), X: eps, Y: r.AvgL1})
				eff.Points = append(eff.Points, Point{Series: string(kind), X: eps, Y: r.AvgQET})
			}
		}
		figs = append(figs, acc, eff)
	}
	return figs, nil
}

// Figure6 reproduces the workload-type comparison: L1 error and QET on
// Sparse / Standard / Burst variants (x encoded as 0/1/2).
func Figure6(ctx context.Context, p Params) ([]Figure, error) {
	p = p.WithDefaults()
	dss := datasets(p)
	variantsOf := func(ds datasetSpec) []workload.Config {
		return []workload.Config{workload.Sparse(ds.WL), ds.WL, workload.Burst(ds.WL)}
	}
	var cells []simCell
	for _, ds := range dss {
		for _, wl := range variantsOf(ds) {
			for _, kind := range dpKinds {
				cells = append(cells, simCell{wl: wl, kind: kind, cfg: ds.Cfg})
			}
		}
	}
	res, err := runCells(ctx, p, cells)
	if err != nil {
		return nil, err
	}
	var figs []Figure
	i := 0
	for _, ds := range dss {
		acc := Figure{
			ID:     "fig6-accuracy-" + ds.Label,
			Title:  "Workload type vs. accuracy (" + ds.Label + "; x: 0=Sparse 1=Standard 2=Burst)",
			XLabel: "workload type",
			YLabel: "avg L1 error",
		}
		eff := Figure{
			ID:     "fig6-efficiency-" + ds.Label,
			Title:  "Workload type vs. efficiency (" + ds.Label + ")",
			XLabel: "workload type",
			YLabel: "avg QET (s)",
		}
		for x := range variantsOf(ds) {
			for _, kind := range dpKinds {
				r := res[i]
				i++
				acc.Points = append(acc.Points, Point{Series: string(kind), X: float64(x), Y: r.AvgL1})
				eff.Points = append(eff.Points, Point{Series: string(kind), X: float64(x), Y: r.AvgQET})
			}
		}
		figs = append(figs, acc, eff)
	}
	return figs, nil
}

// TSweep is the non-privacy parameter grid of Figure 7 (T from 1 to 100;
// theta set to rate*T as in the paper).
var TSweep = []int{1, 2, 5, 10, 20, 50, 100}

// Figure7Epsilons are the three privacy levels of Figure 7.
var Figure7Epsilons = []float64{0.1, 1, 10}

// Figure7 compares the protocols while sweeping T (and correspondingly
// theta) at three privacy levels: each panel is a QET-vs-L1 scatter.
func Figure7(ctx context.Context, p Params) ([]Figure, error) {
	p = p.WithDefaults()
	dss := datasets(p)
	var cells []simCell
	for _, ds := range dss {
		for _, eps := range Figure7Epsilons {
			for _, T := range TSweep {
				cfg := ds.Cfg
				cfg.Epsilon = eps
				cfg.T = T
				cfg.Theta = ds.WL.PairRate * float64(T)
				cfg.SpillPerUpdate = core.SpillBound(cfg, ds.WL)
				for _, kind := range dpKinds {
					cells = append(cells, simCell{wl: ds.WL, kind: kind, cfg: cfg})
				}
			}
		}
	}
	res, err := runCells(ctx, p, cells)
	if err != nil {
		return nil, err
	}
	var figs []Figure
	i := 0
	for _, ds := range dss {
		for _, eps := range Figure7Epsilons {
			fig := Figure{
				ID:     fmt.Sprintf("fig7-%s-eps%g", ds.Label, eps),
				Title:  fmt.Sprintf("T/theta sweep (%s, eps=%g)", ds.Label, eps),
				XLabel: "avg L1 error",
				YLabel: "avg QET (s)",
			}
			for range TSweep {
				for _, kind := range dpKinds {
					r := res[i]
					i++
					fig.Points = append(fig.Points, Point{Series: string(kind), X: r.AvgL1, Y: r.AvgQET})
				}
			}
			figs = append(figs, fig)
		}
	}
	return figs, nil
}

// OmegaSweep is the truncation-bound grid of Figure 8.
var OmegaSweep = []int{2, 4, 8, 16, 24, 32}

// Figure8 evaluates the effect of the truncation bound on the CPDB workload
// (Q2), with b = 2*omega as in the paper: accuracy, QET, and the per-phase
// protocol times.
func Figure8(ctx context.Context, p Params) ([]Figure, error) {
	p = p.WithDefaults()
	ds := datasets(p)[1] // CPDB
	var cells []simCell
	for _, omega := range OmegaSweep {
		cfg := ds.Cfg
		cfg.Omega = omega
		cfg.Budget = 2 * omega
		cfg.SpillPerUpdate = core.SpillBound(cfg, ds.WL)
		for _, kind := range dpKinds {
			cells = append(cells, simCell{wl: ds.WL, kind: kind, cfg: cfg})
		}
	}
	res, err := runCells(ctx, p, cells)
	if err != nil {
		return nil, err
	}
	mk := func(id, title, y string) Figure {
		return Figure{ID: id, Title: title, XLabel: "truncation bound omega", YLabel: y}
	}
	acc := mk("fig8-accuracy", "Query accuracy vs omega (CPDB)", "avg L1 error")
	eff := mk("fig8-qet", "Query efficiency vs omega (CPDB)", "avg QET (s)")
	trf := mk("fig8-transform", "Avg Transform execution time vs omega (CPDB)", "avg time (s)")
	shr := mk("fig8-shrink", "Avg Shrink execution time vs omega (CPDB)", "avg time (s)")
	i := 0
	for _, omega := range OmegaSweep {
		for _, kind := range dpKinds {
			r := res[i]
			i++
			x := float64(omega)
			acc.Points = append(acc.Points, Point{Series: string(kind), X: x, Y: r.AvgL1})
			eff.Points = append(eff.Points, Point{Series: string(kind), X: x, Y: r.AvgQET})
			trf.Points = append(trf.Points, Point{Series: string(kind), X: x, Y: r.AvgTransformSecs})
			shr.Points = append(shr.Points, Point{Series: string(kind), X: x, Y: r.AvgShrinkSecs})
		}
	}
	return []Figure{acc, eff, trf, shr}, nil
}

// ScaleSweep is the data-scaling grid of Figure 9.
var ScaleSweep = []float64{0.5, 1, 2, 4}

// Figure9 reproduces the scaling experiment: total MPC time (Transform +
// Shrink) and total query time at 50%, 1x, 2x and 4x data scale.
func Figure9(ctx context.Context, p Params) ([]Figure, error) {
	p = p.WithDefaults()
	dss := datasets(p)
	var cells []simCell
	for _, ds := range dss {
		for _, factor := range ScaleSweep {
			wl := workload.Scale(ds.WL, factor)
			cfg := core.DefaultConfig(wl, p.Seed)
			cfg.T = ds.Cfg.T
			for _, kind := range dpKinds {
				cells = append(cells, simCell{wl: wl, kind: kind, cfg: cfg})
			}
		}
	}
	res, err := runCells(ctx, p, cells)
	if err != nil {
		return nil, err
	}
	var figs []Figure
	i := 0
	for _, ds := range dss {
		mpcFig := Figure{
			ID:     "fig9-mpc-" + ds.Label,
			Title:  "Total MPC time vs data scale (" + ds.Label + ")",
			XLabel: "scale factor",
			YLabel: "total MPC time (s)",
		}
		qFig := Figure{
			ID:     "fig9-query-" + ds.Label,
			Title:  "Total query time vs data scale (" + ds.Label + ")",
			XLabel: "scale factor",
			YLabel: "total query time (s)",
		}
		for _, factor := range ScaleSweep {
			for _, kind := range dpKinds {
				r := res[i]
				i++
				mpcFig.Points = append(mpcFig.Points, Point{Series: string(kind), X: factor, Y: r.TotalMPCSecs})
				qFig.Points = append(qFig.Points, Point{Series: string(kind), X: factor, Y: r.TotalQuerySecs})
			}
		}
		figs = append(figs, mpcFig, qFig)
	}
	return figs, nil
}
