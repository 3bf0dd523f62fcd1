// Command benchmark is the repository's one benchmark: five closed-loop
// workloads that between them put the load on every layer of the stack, a
// small set of end-to-end metrics with regression bounds, per-layer probes,
// a traced repetition, and correctness checks in the same command. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
// Driver form, one workload per invocation; the last line of standard
// output is the result object:
//
//	go run ./cmd/benchmark -workload tpcds_step -seed 1 -seconds 9 -trace 0
//
// Whole set, every metric printed by name with its unit:
//
//	go run ./cmd/benchmark -seed 1 -out report.json [-trace 1] [-quick]
//	go run ./cmd/benchmark -repeat-check
//	go run ./cmd/benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// report is the -out file and the unit -compare works on.
type report struct {
	Env       environment `json:"env"`
	Seed      int64       `json:"seed"`
	Scale     float64     `json:"scale"`
	Workloads []outcome   `json:"workloads"`
}

// quickScale is -quick: 1/100 of the frozen op counts, a smoke test rather
// than a measurement.
const quickScale = 0.01

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload and print the driver's result object (default: all five)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs and request schedules")
	seconds := fs.Float64("seconds", runSeconds, "measured work per run, in seconds on the reference box; scales the frozen op counts")
	trace := fs.Int("trace", 0, "1 adds a traced repetition and reports the per-layer metrics")
	quick := fs.Bool("quick", false, "1/100 of the op counts: every workload, probe and check runs, nothing is measured well")
	out := fs.String("out", "", "write the report as JSON to this file")
	traceOut := fs.String("trace-out", ".bench_out/trace_", "prefix of the span files a traced run writes (<prefix><workload>.jsonl)")
	scratch := fs.String("scratch", ".bench_tmp", "scratch directory, inside the checkout")
	compare := fs.Bool("compare", false, "compare two reports: -compare a.json b.json")
	repeat := fs.Bool("repeat-check", false, "run the whole set twice and compare the two runs against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; see -h")
		return 2
	}

	p := plan{seed: *seed, scale: *seconds / runSeconds, traced: *trace == 1, scratch: *scratch, traceOut: *traceOut, log: stderr}
	if *quick {
		p.scale = quickScale
	} else if n := runtime.NumCPU(); n < clients {
		// A closed loop with more clients than processors measures the
		// scheduler, not the system.
		fmt.Fprintf(stderr, "benchmark: the workloads drive %d clients but this box has %d processor(s); refusing to measure\n", clients, n)
		return 2
	}
	defer os.Remove(p.scratch) // repetitions remove their own directories; this succeeds only once it is empty

	if *workload != "" {
		return runDriver(p, *workload, stdout, stderr)
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	rep, err := runReport(p, names)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printReport(stdout, rep)
	code := 0
	if !rep.correct() {
		code = 1
	}
	if *repeat {
		second, err := runReport(p, names)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !second.correct() || !compareReports(stdout, rep, second) {
			code = 1
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

func runReport(p plan, names []string) (*report, error) {
	outs, err := runAll(p, names)
	if err != nil {
		return nil, err
	}
	return &report{Env: currentEnvironment(), Seed: p.seed, Scale: p.scale, Workloads: outs}, nil
}

func (r *report) correct() bool {
	for _, o := range r.Workloads {
		if !o.Correct {
			return false
		}
	}
	return true
}

// driverMetric is one entry of the result object's metrics.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDriver runs one workload the way the benchmark driver asks for it:
// untraced for the end-to-end metrics, or one untraced plus one traced
// repetition for the per-layer ones.
func runDriver(p plan, name string, stdout, stderr io.Writer) int {
	// A traced run needs only one untraced repetition, the baseline
	// trace_overhead_frac is taken against.
	p.single = p.traced
	outs, err := runAll(p, []string{name})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	o := outs[0]
	for _, msg := range o.Problems {
		fmt.Fprintln(stderr, "FAILED:", msg)
	}
	defs, vals := endToEnd, o.EndToEnd
	if p.traced {
		defs, vals = perLayer, o.PerLayer
	}
	metrics := make(map[string]driverMetric, len(defs))
	for _, d := range defs {
		metrics[d.Name] = driverMetric{Value: vals[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": o.Correct, "attempted": o.Attempted, "failed": o.Failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !o.Correct {
		return 1
	}
	return 0
}

// printReport prints every metric by name with its unit, one block per
// workload.
func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "benchmark seed=%d scale=%g nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		r.Seed, r.Scale, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	for _, o := range r.Workloads {
		fmt.Fprintf(w, "\n%s: correct=%v attempted=%d failed=%d digest=%s\n", o.Workload, o.Correct, o.Attempted, o.Failed, o.Digest)
		for _, msg := range o.Problems {
			fmt.Fprintf(w, "  FAILED: %s\n", msg)
		}
		printValues(w, endToEnd, o.EndToEnd)
		printValues(w, perLayer, o.PerLayer)
	}
}

func printValues(w io.Writer, defs []metricDef, v values) {
	if v == nil {
		return
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.Name, v[d.Name], d.Unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
