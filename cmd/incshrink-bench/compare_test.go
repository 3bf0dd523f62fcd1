package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestClassify(t *testing.T) {
	for path, want := range map[string]direction{
		"advance.ns_per_op":                   dirLowerBetter,
		"advance.allocs_per_op":               dirLowerBetter,
		"advance.bytes_per_op":                dirLowerBetter,
		"default.per_step.elapsed_seconds":    dirLowerBetter,
		"default.advance_latency.p99_seconds": dirLowerBetter,
		"default.per_step.advances_per_sec":   dirHigherBetter,
		"batch_per_step_speedup":              dirHigherBetter,
		"advance_allocs_improvement":          dirHigherBetter,
		"advance.ops":                         dirNeutral,
		"steps":                               dirNeutral,
		"wire.measured_rounds":                dirNeutral,
		"seed":                                dirNeutral,
	} {
		if got := classify(path); got != want {
			t.Errorf("classify(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	old := writeReport(t, "old.json", `{
		"advance": {"ns_per_op": 1000, "allocs_per_op": 10, "ops": 5000},
		"rates": {"advances_per_sec": 2000},
		"counts": {"load-000": 42}
	}`)

	// Within threshold in both directions: no regression.
	ok := writeReport(t, "ok.json", `{
		"advance": {"ns_per_op": 1100, "allocs_per_op": 10, "ops": 9999},
		"rates": {"advances_per_sec": 1900},
		"counts": {"load-000": 42}
	}`)
	var out strings.Builder
	n, err := runCompare(old, ok, 0.15, &out)
	if err != nil || n != 0 {
		t.Fatalf("within threshold: regressions=%d err=%v\n%s", n, err, out.String())
	}

	// ns/op up 50% and throughput down 50%: two regressions; the neutral
	// iteration count moving is not one.
	bad := writeReport(t, "bad.json", `{
		"advance": {"ns_per_op": 1500, "allocs_per_op": 10, "ops": 1},
		"rates": {"advances_per_sec": 1000},
		"counts": {"load-000": 42}
	}`)
	out.Reset()
	n, err = runCompare(old, bad, 0.15, &out)
	if err != nil || n != 2 {
		t.Fatalf("past threshold: regressions=%d err=%v\n%s", n, err, out.String())
	}
	if !strings.Contains(out.String(), "! advance.ns_per_op") {
		t.Errorf("regressed leaf not marked:\n%s", out.String())
	}

	// An improvement in a lower-is-better metric is never a regression.
	better := writeReport(t, "better.json", `{
		"advance": {"ns_per_op": 100, "allocs_per_op": 2, "ops": 5000},
		"rates": {"advances_per_sec": 9000},
		"counts": {"load-000": 42}
	}`)
	out.Reset()
	if n, err = runCompare(old, better, 0.15, &out); err != nil || n != 0 {
		t.Fatalf("improvement flagged: regressions=%d err=%v\n%s", n, err, out.String())
	}
}

func TestCompareShapeDrift(t *testing.T) {
	old := writeReport(t, "old.json", `{"a": {"ns_per_op": 10}, "gone": {"ns_per_op": 5}}`)
	new_ := writeReport(t, "new.json", `{"a": {"ns_per_op": 10}, "added": {"ns_per_op": 7}}`)
	var out strings.Builder
	n, err := runCompare(old, new_, 0.15, &out)
	if err != nil || n != 0 {
		t.Fatalf("shape drift counted as regression: %d %v", n, err)
	}
	if !strings.Contains(out.String(), "- gone.ns_per_op only in") ||
		!strings.Contains(out.String(), "+ added.ns_per_op only in") {
		t.Errorf("drift not reported:\n%s", out.String())
	}
}

// TestCompareRealReports runs the diff over the checked-in report against
// itself: zero regressions by construction, and it pins that the real report
// shape flattens into directional leaves at all.
func TestCompareRealReports(t *testing.T) {
	const name = "../../BENCH_core.json"
	if _, err := os.Stat(name); err != nil {
		t.Skipf("report %s not present", name)
	}
	var out strings.Builder
	n, err := runCompare(name, name, 0.15, &out)
	if err != nil || n != 0 {
		t.Fatalf("%s vs itself: regressions=%d err=%v", name, n, err)
	}
	if !strings.Contains(out.String(), "ns_per_op") {
		t.Errorf("%s produced no directional leaves:\n%s", name, out.String())
	}
}
