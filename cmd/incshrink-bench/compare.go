package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Benchmark regression diffing: `incshrink-bench -compare old.json new.json`
// reads two BENCH_*.json reports (any shape — the reports are flattened to
// dotted leaf paths), classifies each numeric leaf by its name, and reports
// the relative change. Leaves whose change exceeds -threshold in the bad
// direction are regressions, and any regression makes the command exit
// nonzero — this is the `make bench-diff` gate.
//
// Classification is by suffix convention:
//
//   - lower is better:  *ns_per_op, *allocs_per_op, *bytes_per_op, *_seconds
//   - higher is better: *_per_sec, *speedup, *improvement
//
// Anything else (workload configuration, deterministic counts, testing.B
// iteration counts) carries no direction and is compared for information
// only — it can never fail the gate.

// direction is a metric leaf's improvement sense.
type direction int

const (
	dirNeutral direction = iota
	dirLowerBetter
	dirHigherBetter
)

// classify maps a flattened leaf path to its improvement sense.
func classify(path string) direction {
	switch {
	case strings.HasSuffix(path, "ns_per_op"),
		strings.HasSuffix(path, "allocs_per_op"),
		strings.HasSuffix(path, "bytes_per_op"),
		strings.HasSuffix(path, "_seconds"):
		return dirLowerBetter
	case strings.HasSuffix(path, "_per_sec"),
		strings.HasSuffix(path, "speedup"),
		strings.HasSuffix(path, "improvement"):
		return dirHigherBetter
	default:
		return dirNeutral
	}
}

// flatten reduces a decoded JSON document to numeric leaves keyed by dotted
// path ("baseline.advance.ns_per_op"). Non-numeric leaves are dropped:
// strings and booleans in the reports are configuration echo, not
// measurements.
func flatten(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, child, out)
		}
	case []any:
		for i, child := range x {
			flatten(fmt.Sprintf("%s.%d", prefix, i), child, out)
		}
	case float64:
		out[prefix] = x
	}
}

func loadReport(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	leaves := make(map[string]float64)
	flatten("", doc, leaves)
	return leaves, nil
}

// compareRow is one leaf's diff.
type compareRow struct {
	path     string
	dir      direction
	old, new float64
	// delta is the relative change (new-old)/old; worse is true when delta
	// moves against the leaf's direction by more than the threshold.
	delta float64
	worse bool
}

// runCompare diffs two benchmark reports and writes the result table to w.
// It returns the number of regressions (directional leaves whose relative
// change exceeds threshold in the bad direction).
func runCompare(oldPath, newPath string, threshold float64, w io.Writer) (int, error) {
	oldLeaves, err := loadReport(oldPath)
	if err != nil {
		return 0, err
	}
	newLeaves, err := loadReport(newPath)
	if err != nil {
		return 0, err
	}

	oldPaths := make([]string, 0, len(oldLeaves))
	for path := range oldLeaves {
		oldPaths = append(oldPaths, path)
	}
	sort.Strings(oldPaths)

	var rows []compareRow
	var onlyOld, onlyNew []string
	for _, path := range oldPaths {
		ov := oldLeaves[path]
		nv, ok := newLeaves[path]
		if !ok {
			onlyOld = append(onlyOld, path)
			continue
		}
		row := compareRow{path: path, dir: classify(path), old: ov, new: nv}
		if ov != 0 {
			row.delta = (nv - ov) / ov
			switch row.dir {
			case dirLowerBetter:
				row.worse = row.delta > threshold
			case dirHigherBetter:
				row.worse = row.delta < -threshold
			}
		}
		rows = append(rows, row)
	}
	for path := range newLeaves {
		if _, ok := oldLeaves[path]; !ok {
			onlyNew = append(onlyNew, path)
		}
	}
	sort.Strings(onlyNew)

	regressions := 0
	fmt.Fprintf(w, "comparing %s -> %s (threshold %.0f%%)\n", oldPath, newPath, threshold*100)
	for _, r := range rows {
		if r.dir == dirNeutral {
			continue
		}
		mark := " "
		if r.worse {
			mark = "!"
			regressions++
		}
		fmt.Fprintf(w, "%s %-64s %14.6g %14.6g %+7.1f%%\n", mark, r.path, r.old, r.new, r.delta*100)
	}
	for _, p := range onlyOld {
		fmt.Fprintf(w, "- %s only in %s\n", p, oldPath)
	}
	for _, p := range onlyNew {
		fmt.Fprintf(w, "+ %s only in %s\n", p, newPath)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "FAIL: %d metric(s) regressed more than %.0f%%\n", regressions, threshold*100)
	} else {
		fmt.Fprintf(w, "ok: no metric regressed more than %.0f%%\n", threshold*100)
	}
	return regressions, nil
}
