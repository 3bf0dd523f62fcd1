package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
)

// report adds one experiment's cells and fills to a grid and returns the
// formatter of its report, to call once the grid has run.
type report func(g *grid, p Params) func() string

// reports maps experiment ids (as used by `incshrink-bench -exp`) to their
// reports.
var reports = map[string]report{
	"table2": formatted(table2, FormatTable2),
	"fig4":   formatted(figure4, formatFigures),
	"fig5":   formatted(figure5, formatFigures),
	"fig6":   formatted(figure6, formatFigures),
	"fig7":   formatted(figure7, formatFigures),
	"fig8":   formatted(figure8, formatFigures),
	"fig9":   formatted(figure9, formatFigures),
}

// formatted is the report that formats an experiment's result.
func formatted[T any](build func(*grid, Params) func() T, format func(T) string) report {
	return func(g *grid, p Params) func() string {
		result := build(g, p)
		return func() string { return format(result()) }
	}
}

// formatFigures renders each figure followed by a blank line.
func formatFigures(figs []Figure) string {
	var b strings.Builder
	for _, f := range figs {
		b.WriteString(FormatFigure(f) + "\n")
	}
	return b.String()
}

// runGrid runs one experiment as a grid of its own and returns its result.
// The context cancels in-flight cells.
func runGrid[T any](ctx context.Context, p Params, build func(*grid, Params) func() T) (T, error) {
	p = p.WithDefaults()
	var g grid
	result := build(&g, p)
	if err := g.run(ctx, p); err != nil {
		var zero T
		return zero, err
	}
	return result(), nil
}

// Names lists the registered experiment ids in sorted order.
func Names() []string {
	names := make([]string, 0, len(reports))
	for n := range reports {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run regenerates the named experiments from one grid — a cell two of them
// share is simulated once — and returns their reports in the order named.
func Run(ctx context.Context, p Params, names ...string) ([]string, error) {
	p = p.WithDefaults()
	var g grid
	texts := make([]func() string, len(names))
	for i, name := range names {
		build, ok := reports[name]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		texts[i] = build(&g, p)
	}
	if err := g.run(ctx, p); err != nil {
		return nil, err
	}
	out := make([]string, len(texts))
	for i, text := range texts {
		out[i] = text()
	}
	return out, nil
}

// RunAll regenerates every experiment from one grid and writes the reports
// in Names order, each under a section header. The grid's cells fan out
// across the worker pool and each distinct cell — Table 2's and Figure 4's,
// a parameter point two sweeps share — is simulated once; no report is
// written until every cell has run.
func RunAll(ctx context.Context, p Params, w io.Writer) error {
	names := Names()
	texts, err := Run(ctx, p, names...)
	if err != nil {
		return err
	}
	for i, name := range names {
		if _, err := fmt.Fprintf(w, "==== %s ====\n%s\n", name, texts[i]); err != nil {
			return err
		}
	}
	return nil
}
