// Command incshrink-bench regenerates the paper's evaluation tables and
// figures (Table 2 and Figures 4-9 of Section 7).
//
// Usage:
//
//	incshrink-bench -exp table2 -steps 400
//	incshrink-bench -exp all -steps 1825 -seed 2022 -workers 8
//
// The -steps flag sets the simulated horizon in time steps; 1825 matches the
// paper's five-year TPC-ds span but any laptop-scale value preserves the
// shapes. Independent simulation cells — (dataset, engine, parameter point)
// tuples — run concurrently on -workers goroutines (default GOMAXPROCS);
// output is byte-identical for a fixed seed at any worker count. Output is a
// plain-text table per experiment; Ctrl-C aborts the sweep (in-flight cells
// finish but the interrupted experiment's output is discarded; a second
// Ctrl-C exits immediately).
//
// Wall time is measured by `go run ./cmd/benchmark`, the repository's one
// timing harness; the exact allocation counts of the engine's hot paths are
// pinned by the root package's TestAdvanceBatchStepAllocs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"incshrink/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run: all, "+strings.Join(experiments.Names(), ", "))
		steps   = flag.Int("steps", 400, "simulation horizon in time steps (paper: 1825)")
		seed    = flag.Int64("seed", 2022, "random seed for workloads and protocols")
		workers = flag.Int("workers", 0, "concurrent simulation cells (0 = GOMAXPROCS)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Once the first interrupt cancels the sweep, restore default SIGINT
	// handling so a second Ctrl-C kills the process instead of being
	// swallowed while in-flight cells wind down.
	context.AfterFunc(ctx, stop)

	p := experiments.Params{Steps: *steps, Seed: *seed, Workers: *workers}
	start := time.Now()
	var err error
	if *exp == "all" {
		err = experiments.RunAll(ctx, p, os.Stdout)
	} else if runner, ok := experiments.Registry[*exp]; ok {
		err = runner(ctx, p, os.Stdout)
	} else {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available: all, %s\n", *exp, strings.Join(experiments.Names(), ", "))
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "done in %s\n", time.Since(start).Round(time.Millisecond))
}
