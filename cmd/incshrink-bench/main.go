// Command incshrink-bench regenerates the paper's evaluation tables and
// figures (Table 2 and Figures 4-9 of Section 7), and benchmarks the
// multi-tenant serving subsystem.
//
// Usage:
//
//	incshrink-bench -exp table2 -steps 400
//	incshrink-bench -exp all -steps 1825 -seed 2022 -workers 8
//	incshrink-bench -exp serve -views 8 -steps 200 -json BENCH_serve.json
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
// The serve and core experiments are not part of -exp all. serve drives
// -views concurrent tenants × -steps time steps through the internal/serve
// registry (the incshrink-server data path), once per-step and once with
// -batch-sized AdvanceBatch requests — on the paper-default deployment, an
// ingest-bound microdeployment, and the HTTP ingest path — and writes the
// machine-readable comparison to -json so the serving-performance
// trajectory can be tracked across PRs; per-view counts in the report are
// deterministic for a fixed -seed (and checked identical across batch
// sizes), timings are not. core microbenchmarks the engine's columnar data
// plane (Advance, AdvanceBatch per-step, Count, CountWhere ns/op and
// allocs/op at the paper-default deployment) and writes BENCH_core.json,
// including the recorded pre-refactor baseline for comparison.
//
// -compare diffs two such reports instead of running anything: every
// numeric leaf with a directional name (ns/op, latencies, throughputs) is
// checked for a relative change past -threshold in the bad direction, and
// any regression exits nonzero (the `make bench-diff` gate).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"incshrink"
	"incshrink/internal/experiments"
	"incshrink/internal/serve"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run: serve, core, all, "+strings.Join(experiments.Names(), ", "))
		steps   = flag.Int("steps", 400, "simulation horizon in time steps (paper: 1825)")
		seed    = flag.Int64("seed", 2022, "random seed for workloads and protocols")
		workers = flag.Int("workers", 0, "concurrent simulation cells (0 = GOMAXPROCS)")
		views   = flag.Int("views", 8, "serve experiment: concurrent views")
		batch   = flag.Int("batch", 8, "serve experiment: batched-ingestion batch size (compared against per-step)")
		jsonOut = flag.String("json", "", "serve/core experiments: machine-readable report path (default BENCH_<exp>.json)")
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
	if *exp == "serve" {
		out := *jsonOut
		if out == "" {
			out = "BENCH_serve.json"
		}
		err = runServe(ctx, *views, *steps, *seed, *workers, *batch, out)
	} else if *exp == "core" {
		out := *jsonOut
		if out == "" {
			out = "BENCH_core.json"
		}
		err = runCore(out)
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

// ServePairReport compares per-step against batched ingestion of the same
// per-view step sequence on one deployment. CountsIdentical asserts the
// AdvanceBatch equivalence contract end to end: every view's final count
// must be the same at both batch sizes.
type ServePairReport struct {
	Deployment      string           `json:"deployment"`
	PerStep         serve.LoadReport `json:"per_step"`
	Batched         serve.LoadReport `json:"batched"`
	ThroughputRatio float64          `json:"throughput_ratio"` // batched / per-step, in steps per second
	CountsIdentical bool             `json:"counts_identical"`
}

// finish derives the pair's comparison fields once both arms are in and
// enforces the equivalence contract — shared by the Go-API and HTTP arms
// so they can never drift apart.
func (pr *ServePairReport) finish(label string) error {
	if pr.PerStep.AdvancesPerSec > 0 {
		pr.ThroughputRatio = pr.Batched.AdvancesPerSec / pr.PerStep.AdvancesPerSec
	}
	pr.CountsIdentical = len(pr.PerStep.Counts) == len(pr.Batched.Counts)
	for name, n := range pr.PerStep.Counts {
		if pr.Batched.Counts[name] != n {
			pr.CountsIdentical = false
		}
	}
	if !pr.CountsIdentical {
		return fmt.Errorf("serve[%s]: batched counts diverged from per-step — AdvanceBatch equivalence broken", label)
	}
	fmt.Printf("serve[%s]: batched ingest %.2fx per-step throughput (counts identical)\n", label, pr.ThroughputRatio)
	return nil
}

// ServeBenchReport is the machine-readable serving benchmark (the payload
// of BENCH_serve.json): the paper-default deployment, where the per-step
// MPC work dominates, and an ingest-bound microdeployment (minimal blocks
// and window) that isolates the serving-layer cost batching amortizes —
// mailbox round trips, worker-slot handoffs, scheduler switches.
type ServeBenchReport struct {
	Experiment  string          `json:"experiment"`
	Views       int             `json:"views"`
	Steps       int             `json:"steps"`
	BatchSize   int             `json:"batch_size"`
	Default     ServePairReport `json:"default"`
	IngestBound ServePairReport `json:"ingest_bound"`
	// HTTP drives the server's real ingest interface (routing + strict
	// JSON + mailbox) per-step vs batched — the fixed per-request cost the
	// advance-batch endpoint amortizes.
	HTTP ServePairReport `json:"http"`
}

// runServe benchmarks the multi-tenant serving subsystem: views concurrent
// tenants ingesting steps time steps each through the registry (standing
// count query every 5 steps), once one request per step and once with
// batch-sized AdvanceBatch requests, on both deployments, and writes the
// combined report to jsonOut.
func runServe(ctx context.Context, views, steps int, seed int64, workers, batch int, jsonOut string) error {
	runPair := func(label string, def incshrink.ViewDef, opts incshrink.Options) (ServePairReport, error) {
		pr := ServePairReport{Deployment: label}
		for _, b := range []int{1, batch} {
			reg := serve.NewRegistry(serve.Config{IngestWorkers: workers, IngestBatch: batch})
			cfg := serve.LoadConfig{
				Views: views, Steps: steps, QueryEvery: 5, RowsPerStep: 2, Batch: b,
				Def: def, Opts: opts, Workers: workers,
			}
			rep, err := serve.RunLoad(ctx, reg, cfg)
			reg.Close(context.Background())
			if err != nil {
				return pr, err
			}
			if b == 1 {
				pr.PerStep = rep
			} else {
				pr.Batched = rep
			}
			fmt.Printf("serve[%s] batch=%d: %d advances (%.0f steps/s), latency p50/p99 %.3gms/%.3gms\n",
				label, b, rep.Advances, rep.AdvancesPerSec,
				rep.AdvanceLatency.P50*1e3, rep.AdvanceLatency.P99*1e3)
		}
		return pr, pr.finish(label)
	}

	rep := ServeBenchReport{Experiment: "serve", Views: views, Steps: steps, BatchSize: batch}
	var err error
	rep.Default, err = runPair("paper-default: ViewDef{Within:10} Options{Epsilon:1.5,T:10}",
		incshrink.ViewDef{Within: 10},
		incshrink.Options{Epsilon: 1.5, T: 10, Seed: seed})
	if err != nil {
		return err
	}
	rep.IngestBound, err = runPair("ingest-bound: ViewDef{Within:2,Budget:2} Options{MaxLeft:2,MaxRight:2,T:2}",
		incshrink.ViewDef{Within: 2, Budget: 2},
		incshrink.Options{Epsilon: 1.5, T: 2, MaxLeft: 2, MaxRight: 2, Seed: seed})
	if err != nil {
		return err
	}
	rep.HTTP, err = runHTTPPair(ctx, views, steps, seed, workers, batch,
		"http ingest path: ViewDef{Within:2,Budget:2} Options{MaxLeft:2,MaxRight:2,T:2}",
		incshrink.ViewDef{Within: 2, Budget: 2},
		incshrink.Options{Epsilon: 1.5, T: 2, MaxLeft: 2, MaxRight: 2, Seed: seed})
	if err != nil {
		return err
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("serve: report written to %s\n", jsonOut)
	return nil
}
