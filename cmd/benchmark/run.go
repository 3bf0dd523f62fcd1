package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// workloadDef is one closed-loop workload. run executes one repetition:
// set-up, measured phase, correctness checks.
type workloadDef struct {
	name string
	why  string
	reps int // repetitions (set-ups) per run
	run  func(*runCtx) (*repResult, error)
}

// workloads is the fixed list; BENCHMARK.json repeats the names and reasons.
var workloads = []workloadDef{
	{"tpcds_step", "the paper's main loop, one Advance per step: the oblivious join sort, compaction and cache sort do most of the work", reps, runTPCDSStep},
	{"tpcds_batch", "AdvanceBatch(8) with MergeWindows: the only caller of the merged Transform, which must keep its gain over tpcds_step", reps, runTPCDSBatch},
	{"cpdb_query", "query-heavy mix over a view larger than L2 (sDPANT, public relation, omega-truncation): oblivious scans, not sorts", cpdbReps, runCPDBQuery},
	{"serve_http", "production HTTP wiring over tiny views: routing, JSON, admission, mailbox, telemetry and checkpoints, engine work negligible", serveReps, runServeHTTP},
	{"party_tls", "two parties over pinned-cert TLS 1.3: party.Run sessions then a GMW Batcher sort, so mpc, gmw and wire do all the work", partyReps, runPartyTLS},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// golden holds the SHA-256 of every workload's answer sequence for seed 1,
// keyed by scale ("1" full, "0.01" -quick). No other seed consults it.
//
//go:embed golden.json
var goldenJSON []byte

const goldenSeed = 1

func goldenDigest(scale float64, workload string) (string, bool) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", false
	}
	d, ok := g[strconv.FormatFloat(scale, 'g', -1, 64)][workload]
	return d, ok
}

// outcome is one workload's result over a run's repetitions.
type outcome struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Digest    string   `json:"digest"`
	EndToEnd  values   `json:"end_to_end,omitempty"`
	PerLayer  values   `json:"per_layer,omitempty"`
	Problems  []string `json:"problems,omitempty"`
}

// plan says how a run repeats each workload: untraced repetitions give the
// end-to-end metrics; one more, traced, gives the per-layer numbers.
type plan struct {
	seed     int64
	scale    float64
	single   bool // one untraced repetition per workload instead of its full count
	traced   bool
	scratch  string    // scratch root inside the checkout
	traceOut string    // span file prefix ("" = do not write)
	log      io.Writer // progress and trace summaries
}

// runAll executes the plan over the named workloads round-robin (repetition
// outermost, so slow drift of the box spreads over all workloads alike) and
// aggregates.
func runAll(p plan, names []string) ([]outcome, error) {
	type acc struct {
		def     workloadDef
		samples []*repResult // untraced repetitions
		traced  *repResult
		tr      *tracer
	}
	accs := make([]*acc, len(names))
	for i, n := range names {
		w, ok := findWorkload(n)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		accs[i] = &acc{def: w}
	}
	// runRep executes one repetition of a workload, traced or not.
	runRep := func(a *acc, rep int, traced bool) error {
		dir, err := scratchDir(p.scratch, a.def.name)
		if err != nil {
			return err
		}
		defer removeAll(dir)
		ctx := &runCtx{seed: p.seed, scale: p.scale, dir: dir}
		if traced {
			a.tr = newTracer()
			ctx.tr = a.tr
		}
		// Every repetition starts from a collected heap, so that its set-up
		// does not pay for the previous repetition's garbage.
		runtime.GC()
		res, err := a.def.run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", a.def.name, err)
		}
		if traced {
			a.traced = res
		} else {
			a.samples = append(a.samples, res)
		}
		fmt.Fprintf(p.log, "%s rep %d traced=%v: set-up %.2fs, timed %.2fs, %d attempted, %d failed\n",
			a.def.name, rep, traced, res.setup.Seconds(), res.timed.Seconds(), res.attempted, res.failed)
		return nil
	}
	most := 1
	if !p.single {
		for _, a := range accs {
			most = max(most, a.def.reps)
		}
	}
	for rep := 0; rep < most; rep++ {
		for _, a := range accs {
			if rep == 0 || (!p.single && rep < a.def.reps) {
				if err := runRep(a, rep, false); err != nil {
					return nil, err
				}
			}
		}
	}
	var probes values
	if p.traced {
		for _, a := range accs {
			if err := runRep(a, most, true); err != nil {
				return nil, err
			}
		}
		var err error
		if probes, err = runProbes(p); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}

	outs := make([]outcome, len(accs))
	for i, a := range accs {
		o := outcome{Workload: a.def.name}
		all := append([]*repResult(nil), a.samples...)
		if a.traced != nil {
			all = append(all, a.traced)
		}
		var chk checker
		for _, r := range all {
			o.Attempted += r.attempted
			o.Failed += r.failed
			o.Problems = append(o.Problems, r.problems...)
		}
		// Identical inputs every repetition: answers and exact metrics repeat.
		o.Digest = all[0].digest
		for _, r := range all[1:] {
			chk.check(r.digest == o.Digest, "answer digest differs between repetitions: %s vs %s", r.digest, o.Digest)
			for _, d := range perLayer {
				x, okx := all[0].layer[d.Name]
				y, oky := r.layer[d.Name]
				if d.Exact && okx && oky && x != y {
					chk.fail("exact metric %s differs between repetitions: %v vs %v", d.Name, x, y)
				}
			}
		}
		if p.seed == goldenSeed {
			if want, ok := goldenDigest(p.scale, a.def.name); ok {
				chk.check(o.Digest == want, "answer digest %s, golden %s", o.Digest, want)
			}
		}
		if len(a.samples) > 0 {
			o.EndToEnd = endToEndOf(a.samples)
		}
		o.Attempted += chk.attempted
		o.Failed += chk.failed
		o.Problems = append(o.Problems, chk.problems...)
		o.Correct = o.Failed == 0

		if a.traced != nil {
			o.PerLayer = make(values)
			for k, v := range probes {
				o.PerLayer[k] = v
			}
			for k, v := range a.traced.layer {
				o.PerLayer[k] = v
			}
			// The go layer describes the untraced measured phase: the traced
			// one allocates for its spans and scrapes.
			for k, v := range a.samples[0].layer {
				if strings.HasPrefix(k, "go.") {
					o.PerLayer[k] = v
				}
			}
			var base []float64
			for _, r := range a.samples {
				base = append(base, r.timed.Seconds())
			}
			if b := median(base); b > 0 {
				o.PerLayer["trace_overhead_frac"] = (a.traced.timed.Seconds() - b) / b
			}
			o.PerLayer.fill(perLayer)
			a.tr.summary(p.log, a.def.name)
			if p.traceOut != "" {
				if err := a.tr.writeFile(p.traceOut + a.def.name + ".jsonl"); err != nil {
					return nil, err
				}
			}
		}
		outs[i] = o
	}
	return outs, nil
}

// environment is recorded in every report: numbers from different boxes or
// toolchains are not comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}
