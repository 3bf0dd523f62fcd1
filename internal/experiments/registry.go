package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
)

// Runner regenerates one experiment and writes its report to w. The context
// cancels in-flight sweep cells.
type Runner func(ctx context.Context, p Params, w io.Writer) error

// Registry maps experiment ids (as used by `incshrink-bench -exp`) to
// runners.
var Registry = map[string]Runner{
	"table2": func(ctx context.Context, p Params, w io.Writer) error {
		rows, err := Table2(ctx, p)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, FormatTable2(rows))
		return err
	},
	"fig4": figureRunner(Figure4),
	"fig5": figureRunner(Figure5),
	"fig6": figureRunner(Figure6),
	"fig7": figureRunner(Figure7),
	"fig8": figureRunner(Figure8),
	"fig9": figureRunner(Figure9),
}

func figureRunner(f func(context.Context, Params) ([]Figure, error)) Runner {
	return func(ctx context.Context, p Params, w io.Writer) error {
		figs, err := f(ctx, p)
		if err != nil {
			return err
		}
		for _, fig := range figs {
			if _, err := io.WriteString(w, FormatFigure(fig)+"\n"); err != nil {
				return err
			}
		}
		return nil
	}
}

// Names lists the registered experiment ids in sorted order.
func Names() []string {
	names := make([]string, 0, len(Registry))
	for n := range Registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunAll executes every experiment in order, writing section headers.
// Experiments are emitted sequentially so the report order is stable, but
// each experiment's cells fan out across the worker pool, and the shared
// trace/result caches mean overlapping cells (Table 2 and Figure 4, repeated
// parameter points) are simulated only once per run.
func RunAll(ctx context.Context, p Params, w io.Writer) error {
	for _, name := range Names() {
		if _, err := fmt.Fprintf(w, "==== %s ====\n", name); err != nil {
			return err
		}
		if err := Registry[name](ctx, p, w); err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
