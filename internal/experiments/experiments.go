// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7). Each experiment has a typed runner returning the
// rows/series the paper reports and a formatter producing a readable text
// table. A run — one experiment, or RunAll's seven — is one grid of
// simulation cells, and nothing is kept between runs. The per-experiment
// index lives in DESIGN.md §3. Every report at seed 1 and 120 steps — Table
// 2 and Figures 4 to 9 — is pinned byte for byte as a golden under testdata/
// (`make goldens` regenerates them), and cmd/incshrink-bench prints every
// report at any scale.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"incshrink/internal/core"
	"incshrink/internal/sim"
	"incshrink/internal/workload"
)

// Params scopes an experiment run. The defaults target a laptop-scale run
// that preserves the paper's shapes; raise Steps toward 1825 (the TPC-ds
// five-year horizon) for the full-scale numbers.
type Params struct {
	Steps int
	Seed  int64
	// Workers bounds the sweep's concurrency; <= 0 means GOMAXPROCS. Output
	// is byte-identical at any value for a fixed seed.
	Workers int
}

// WithDefaults fills zero fields.
func (p Params) WithDefaults() Params {
	if p.Steps <= 0 {
		p.Steps = 400
	}
	if p.Seed == 0 {
		p.Seed = 2022
	}
	return p
}

// datasets returns the two evaluation workloads with the paper's protocol
// parameters (T=10 for TPC-ds, T=3 for CPDB).
func datasets(p Params) []datasetSpec {
	tp := workload.TPCDS(p.Steps, p.Seed)
	cp := workload.CPDB(p.Steps, p.Seed)
	tpCfg := core.DefaultConfig(tp, p.Seed)
	tpCfg.T = 10
	cpCfg := core.DefaultConfig(cp, p.Seed)
	cpCfg.T = 3
	return []datasetSpec{
		{Label: "TPC-ds", WL: tp, Cfg: tpCfg},
		{Label: "CPDB", WL: cp, Cfg: cpCfg},
	}
}

type datasetSpec struct {
	Label string
	WL    workload.Config
	Cfg   core.Config
}

// Table2Row is one candidate's line in the aggregated comparison table.
type Table2Row struct {
	Dataset   string
	Candidate string

	AvgL1  float64
	RelErr float64
	ImpL1  float64 // accuracy improvement over OTM

	TransformSecs float64
	ShrinkSecs    float64
	QETSecs       float64
	ImpOverNM     float64
	ImpOverEP     float64

	ViewMB  float64
	ImpView float64 // view-size improvement over EP
}

// Table2 reproduces the aggregated statistics for the comparison experiment:
// all five candidates on both datasets at the default configuration, as a
// grid of its own.
func Table2(ctx context.Context, p Params) ([]Table2Row, error) {
	return runGrid(ctx, p, table2)
}

// table2 adds Table 2's ten cells to g. A dataset's rows are written once
// its last candidate's result arrives, since each row's improvement columns
// compare it with OTM, NM and EP.
func table2(g *grid, p Params) func() []Table2Row {
	var rows []Table2Row
	for _, ds := range datasets(p) {
		got := map[sim.EngineKind]sim.Result{}
		for _, kind := range sim.AllKinds {
			g.cell(ds.WL, kind, ds.Cfg, func(r sim.Result) {
				got[kind] = r
				if len(got) == len(sim.AllKinds) {
					rows = append(rows, table2Rows(ds.Label, got)...)
				}
			})
		}
	}
	return func() []Table2Row { return rows }
}

// table2Rows is one dataset's block of Table 2, in candidate order.
func table2Rows(label string, got map[sim.EngineKind]sim.Result) []Table2Row {
	otm, ep, nm := got[sim.KindOTM], got[sim.KindEP], got[sim.KindNM]
	var rows []Table2Row
	for _, kind := range sim.AllKinds {
		r := got[kind]
		rows = append(rows, Table2Row{
			Dataset:       label,
			Candidate:     string(kind),
			AvgL1:         r.AvgL1,
			RelErr:        r.AvgRel,
			ImpL1:         sim.Improvement(otm.AvgL1, r.AvgL1),
			TransformSecs: r.AvgTransformSecs,
			ShrinkSecs:    r.AvgShrinkSecs,
			QETSecs:       r.AvgQET,
			ImpOverNM:     sim.Improvement(nm.AvgQET, r.AvgQET),
			ImpOverEP:     sim.Improvement(ep.AvgQET, r.AvgQET),
			ViewMB:        float64(r.ViewBytes) / (1 << 20),
			ImpView:       sim.Improvement(float64(ep.ViewBytes), float64(r.ViewBytes)),
		})
	}
	return rows
}

// FormatTable2 renders the rows as a text table.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "dataset\tcandidate\tavgL1\trelErr\timp(L1)\ttransform(s)\tshrink(s)\tQET(s)\timp/NM\timp/EP\tview(MB)\timp(view)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.2f\t%.4f\t%s\t%.4f\t%.4f\t%.6f\t%s\t%s\t%.3f\t%s\n",
			r.Dataset, r.Candidate, r.AvgL1, r.RelErr, fmtImp(r.ImpL1),
			r.TransformSecs, r.ShrinkSecs, r.QETSecs,
			fmtImp(r.ImpOverNM), fmtImp(r.ImpOverEP), r.ViewMB, fmtImp(r.ImpView))
	}
	w.Flush()
	return b.String()
}

func fmtImp(x float64) string {
	switch {
	case x != x: // NaN
		return "n/a"
	case x > 1e15:
		return "inf"
	case x >= 100:
		return fmt.Sprintf("%.0fx", x)
	default:
		return fmt.Sprintf("%.1fx", x)
	}
}

// Point is one datum of a figure: an (X, Y) pair within a named series.
type Point struct {
	Series string
	X, Y   float64
}

// Figure is a reproduced plot: labeled axes plus the point series.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Points []Point
}

// SeriesNames returns the distinct series labels in first-appearance order.
func (f Figure) SeriesNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, p := range f.Points {
		if !seen[p.Series] {
			seen[p.Series] = true
			names = append(names, p.Series)
		}
	}
	return names
}

// Series returns the points of one series, X-sorted.
func (f Figure) Series(name string) []Point {
	var out []Point
	for _, p := range f.Points {
		if p.Series == name {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return out
}

// FormatFigure renders a figure's series as aligned columns.
func FormatFigure(f Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "series\t%s\t%s\n", f.XLabel, f.YLabel)
	for _, name := range f.SeriesNames() {
		for _, p := range f.Series(name) {
			fmt.Fprintf(w, "%s\t%.4g\t%.6g\n", name, p.X, p.Y)
		}
	}
	w.Flush()
	return b.String()
}
