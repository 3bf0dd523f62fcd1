package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles is -compare: load two -out reports and compare them.
func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	var reps [2]*report
	for i, path := range []string{pathA, pathB} {
		b, err := os.ReadFile(path)
		if err == nil {
			reps[i] = new(report)
			err = json.Unmarshal(b, reps[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", path, err)
			return 2
		}
	}
	if !compareReports(stdout, reps[0], reps[1]) {
		return 1
	}
	return 0
}

// compareReports prints, per workload and metric, the two reports' values,
// their relative gap and the bound, and reports whether they agree: every
// end-to-end metric within its bound and — when both reports measured the
// same seed at the same scale — every exact metric and answer digest
// identical.
func compareReports(w io.Writer, a, b *report) bool {
	ok := true
	sameInputs := a.Seed == b.Seed && a.Scale == b.Scale
	fmt.Fprintf(w, "\n%-12s %-36s %16s %16s %9s %7s\n", "workload", "metric", "a", "b", "gap", "bound")
	for _, oa := range a.Workloads {
		var ob *outcome
		for i := range b.Workloads {
			if b.Workloads[i].Workload == oa.Workload {
				ob = &b.Workloads[i]
			}
		}
		if ob == nil {
			fmt.Fprintf(w, "%-12s missing from the second report\n", oa.Workload)
			ok = false
			continue
		}
		if sameInputs && oa.Digest != ob.Digest {
			fmt.Fprintf(w, "%-12s answer digests differ  DISAGREE\n", oa.Workload)
			ok = false
		}
		for _, d := range endToEnd {
			va, vb := oa.EndToEnd[d.Name], ob.EndToEnd[d.Name]
			gap := math.Abs(vb-va) / math.Abs(va)
			verdict := ""
			if !(gap <= d.Bound) { // also catches a NaN gap from a zero base
				verdict, ok = "  DISAGREE", false
			}
			fmt.Fprintf(w, "%-12s %-36s %16.6g %16.6g %8.2f%% %6.0f%%%s\n", oa.Workload, d.Name, va, vb, 100*gap, 100*d.Bound, verdict)
		}
		if oa.PerLayer == nil || ob.PerLayer == nil {
			continue
		}
		for _, d := range perLayer {
			va, vb := oa.PerLayer[d.Name], ob.PerLayer[d.Name]
			verdict := ""
			if d.Exact && sameInputs && va != vb {
				verdict, ok = "  DISAGREE", false
			}
			gap := 0.0
			if va != 0 {
				gap = math.Abs(vb-va) / math.Abs(va)
			}
			bound := "-"
			if d.Exact {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-12s %-36s %16.6g %16.6g %8.2f%% %7s%s\n", oa.Workload, d.Name, va, vb, 100*gap, bound, verdict)
		}
	}
	if ok {
		fmt.Fprintln(w, "the two reports agree")
	} else {
		fmt.Fprintln(w, "the two reports DISAGREE")
	}
	return ok
}
