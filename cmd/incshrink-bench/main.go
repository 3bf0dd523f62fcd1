// Command incshrink-bench regenerates the paper's evaluation tables and
// figures (Table 2 and Figures 4-9 of Section 7) and microbenchmarks the
// engine's data plane.
//
// Usage:
//
//	incshrink-bench -exp table2 -steps 400
//	incshrink-bench -exp all -steps 1825 -seed 2022 -workers 8
//	incshrink-bench -exp core -json BENCH_core.json
//	incshrink-bench -compare BENCH_core.json BENCH_core.new.json
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
// The core experiment is not part of -exp all: it microbenchmarks the
// engine's columnar data plane (Advance, AdvanceBatch per-step, Count,
// CountWhere ns/op and allocs/op at the paper-default deployment) and writes
// BENCH_core.json, including the recorded pre-refactor baseline for
// comparison. The serving layer is measured by `go run ./cmd/benchmark
// -workload serve_http`.
//
// -compare diffs two such reports instead of running anything: every
// numeric leaf with a directional name (ns/op, latencies, throughputs) is
// checked for a relative change past -threshold in the bad direction, and
// any regression exits nonzero (the `make bench-diff` gate).
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
		exp     = flag.String("exp", "all", "experiment to run: core, all, "+strings.Join(experiments.Names(), ", "))
		steps   = flag.Int("steps", 400, "simulation horizon in time steps (paper: 1825)")
		seed    = flag.Int64("seed", 2022, "random seed for workloads and protocols")
		workers = flag.Int("workers", 0, "concurrent simulation cells (0 = GOMAXPROCS)")
		jsonOut = flag.String("json", "BENCH_core.json", "core experiment: machine-readable report path")
		compare = flag.Bool("compare", false, "compare two BENCH_*.json reports (old then new as positional args) instead of running; exits nonzero on regression")
		thresh  = flag.Float64("threshold", 0.15, "with -compare: relative change past which a directional metric counts as a regression")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: incshrink-bench -compare [-threshold 0.15] old.json new.json")
			os.Exit(2)
		}
		regressions, err := runCompare(flag.Arg(0), flag.Arg(1), *thresh, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Once the first interrupt cancels the sweep, restore default SIGINT
	// handling so a second Ctrl-C kills the process instead of being
	// swallowed while in-flight cells wind down.
	context.AfterFunc(ctx, stop)

	p := experiments.Params{Steps: *steps, Seed: *seed, Workers: *workers}
	start := time.Now()
	var err error
	if *exp == "core" {
		err = runCore(*jsonOut)
	} else if *exp == "all" {
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
