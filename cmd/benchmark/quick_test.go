package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// quickPlan is the -quick plan with a traced repetition: every workload,
// every probe and every check runs, at 1/100 of the op counts.
func quickPlan(t *testing.T, seed int64) plan {
	return plan{
		seed: seed, scale: quickScale, single: true, traced: true,
		scratch:  t.TempDir(),
		traceOut: filepath.Join(t.TempDir(), "trace_"),
		log:      io.Discard,
	}
}

func allNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesProgram holds BENCHMARK.json to the tables the program
// prints from: same workloads, same metrics with the same unit, direction
// and bound, names within the driver's grammar.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program %d", m.RunSeconds, runSeconds)
	}
	if !slices.Equal(m.Paths, []string{"cmd/benchmark"}) {
		t.Errorf("paths %v", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, program has %d", kind, len(got), len(want))
		}
		for i, g := range got {
			d := want[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: manifest %+v, program %+v", kind, i, g, d)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s[%d]: name %q or unit %q outside the grammar, or name reused", kind, i, g.Name, g.Unit)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s[%d] %s: bound %v, program %v", kind, i, g.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s[%d] %s: per-layer metrics carry no bound", kind, i, g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if !slices.ContainsFunc(m.EndToEnd, func(g manifestMetric) bool {
		return g.Name == "setup_s" && g.Unit == "s" && g.Better == "lower"
	}) {
		t.Error("end_to_end must contain setup_s in s, lower is better")
	}
}

// TestQuick runs the whole benchmark at -quick scale with tracing: every
// workload, probe and correctness check executes and passes, the seed-1
// answer digests equal golden.json, and the metric names printed are exactly
// the declared ones.
func TestQuick(t *testing.T) {
	p := quickPlan(t, goldenSeed)
	outs, err := runAll(p, allNames())
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{Env: currentEnvironment(), Seed: p.seed, Scale: p.scale, Workloads: outs}
	for _, o := range outs {
		if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", o.Workload, o.Correct, o.Attempted, o.Failed, o.Problems)
		}
		if _, ok := goldenDigest(p.scale, o.Workload); !ok {
			t.Errorf("%s: golden.json has no -quick digest; the run's is %s", o.Workload, o.Digest)
		}
		for _, d := range endToEnd {
			if v := o.EndToEnd[d.Name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", o.Workload, d.Name, v)
			}
		}
		if fi, err := os.Stat(p.traceOut + o.Workload + ".jsonl"); err != nil || fi.Size() == 0 {
			t.Errorf("%s: span file missing or empty: %v", o.Workload, err)
		}
	}

	var buf bytes.Buffer
	printReport(&buf, rep)
	printed := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "  ") && len(f) == 3 {
			printed[f[0]]++
		}
	}
	m := readManifest(t)
	for _, g := range append(m.EndToEnd, m.PerLayer...) {
		if printed[g.Name] != len(workloads) {
			t.Errorf("declared metric %s printed %d times, want once per workload", g.Name, printed[g.Name])
		}
		delete(printed, g.Name)
	}
	for name := range printed {
		t.Errorf("printed metric %s is not declared in BENCHMARK.json", name)
	}

	// Layers the probes and workloads must have measured on every run.
	for _, o := range outs {
		for _, name := range []string{"oblivious.join_us", "oblivious.join_gates", "securearray.sync_us", "query.rewrite_ns",
			"mpc.exchange_ns", "gmw.and_ns_loopback", "wire.tls_round_us", "dp.laplace_ns", "go.gomaxprocs"} {
			if !(o.PerLayer[name] > 0) {
				t.Errorf("%s: %s = %v, want > 0", o.Workload, name, o.PerLayer[name])
			}
		}
		if r, b := o.PerLayer["party.measured_vs_predicted_rounds"], o.PerLayer["party.measured_vs_predicted_bytes"]; r != 1 || b != 1 {
			t.Errorf("%s: measured vs predicted wire cost %v rounds, %v bytes, want exactly 1", o.Workload, r, b)
		}
	}
	if !compareReports(io.Discard, rep, rep) {
		t.Error("a report does not agree with itself")
	}
}

// TestSecondSeed proves the seed is an argument: seed 2 produces different
// inputs (every answer digest changes), every self-consistency check still
// passes, and golden.json — which holds seed 1 only — is not consulted, or
// the changed digests would have failed the run.
func TestSecondSeed(t *testing.T) {
	p := quickPlan(t, goldenSeed+1)
	p.traced = false
	outs, err := runAll(p, allNames())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if !o.Correct {
			t.Errorf("%s: %v", o.Workload, o.Problems)
		}
		if g, _ := goldenDigest(p.scale, o.Workload); o.Digest == g {
			t.Errorf("%s: seed 2 reproduced seed 1's answers", o.Workload)
		}
	}
}

// TestDriverResultLine checks the driver form: the last line of standard
// output is one JSON object with exactly the contract's keys, carrying
// every end-to-end metric untraced and every per-layer metric traced.
func TestDriverResultLine(t *testing.T) {
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var stdout bytes.Buffer
		code := run([]string{"-workload", "tpcds_step", "-seed", "3", "-quick", "-trace", trace,
			"-scratch", t.TempDir(), "-trace-out", filepath.Join(t.TempDir(), "trace_")}, &stdout, io.Discard)
		if code != 0 {
			t.Fatalf("-trace %s: exit code %d", trace, code)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct   *bool                   `json:"correct"`
			Attempted *int                    `json:"attempted"`
			Failed    *int                    `json:"failed"`
			Metrics   map[string]driverMetric `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("-trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
			t.Errorf("-trace %s: result %s", trace, lines[len(lines)-1])
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("-trace %s: %d metrics, want %d", trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("-trace %s: metric %s missing or unit %q, want %q", trace, d.Name, m.Unit, d.Unit)
			}
		}
	}
}

// TestCompareCatchesDisagreement perturbs one end-to-end and one exact
// metric in turn.
func TestCompareCatchesDisagreement(t *testing.T) {
	base := func() *report {
		o := outcome{Workload: "tpcds_step", Correct: true, Digest: "d", EndToEnd: values{}, PerLayer: values{}}
		for _, d := range endToEnd {
			o.EndToEnd[d.Name] = 100
		}
		for _, d := range perLayer {
			o.PerLayer[d.Name] = 100
		}
		return &report{Seed: 1, Scale: 1, Workloads: []outcome{o}}
	}
	within := base()
	within.Workloads[0].EndToEnd["steps_per_s"] = 120
	within.Workloads[0].PerLayer["oblivious.join_us"] = 300 // per-layer timings carry no bound
	if !compareReports(io.Discard, base(), within) {
		t.Error("a 20% gap under a 25% bound must agree")
	}
	beyond := base()
	beyond.Workloads[0].EndToEnd["steps_per_s"] = 130
	if compareReports(io.Discard, base(), beyond) {
		t.Error("a 30% gap under a 25% bound must disagree")
	}
	exact := base()
	exact.Workloads[0].PerLayer["oblivious.join_gates"] = 101
	if compareReports(io.Discard, base(), exact) {
		t.Error("an exact metric that differs at all must disagree")
	}
	otherSeed := base()
	otherSeed.Seed = 2
	otherSeed.Workloads[0].PerLayer["oblivious.join_gates"] = 101
	otherSeed.Workloads[0].Digest = "e"
	if !compareReports(io.Discard, base(), otherSeed) {
		t.Error("exact metrics and digests are only comparable at the same seed and scale")
	}
}

func TestBatcherNetworkSorts(t *testing.T) {
	if n := len(batcherNetwork(partySortWords)); n != 543 {
		t.Errorf("Batcher network over %d wires has %d compare-exchanges, want 543", partySortWords, n)
	}
	vals, _ := sortInputs(7, partySortWords)
	want := slices.Clone(vals)
	slices.Sort(want)
	for _, c := range batcherNetwork(partySortWords) {
		if vals[c[0]] > vals[c[1]] {
			vals[c[0]], vals[c[1]] = vals[c[1]], vals[c[0]]
		}
	}
	if !slices.Equal(vals, want) {
		t.Error("the network does not sort")
	}
}
