package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestGoldenDiffIsTransformColumnOnly holds the re-capture that came with
// "sort once, merge thereafter" to what that change may move: against the
// parent's capture (kept as .pre_merge.txt), every cell outside Table 2's
// transform(s) column is byte-identical — answers, errors, Shrink and query
// costs, view sizes — and transform(s) fell in every row of an engine that
// runs a stream of Transforms. OTM runs exactly one, its first, and on CPDB
// that one merges a new block larger than the pre-filled carry: a cold start
// pays the sort of the block plus a merge where it used to pay one sort of
// the same padded size, so that row alone may rise.
func TestGoldenDiffIsTransformColumnOnly(t *testing.T) {
	read := func(name string) [][]string {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("missing capture: %v", err)
		}
		var rows [][]string
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			rows = append(rows, strings.Fields(line))
		}
		return rows
	}
	was, now := read("golden_table2_seed1_steps120.pre_merge.txt"), read("golden_table2_seed1_steps120.txt")
	if len(was) != len(now) || len(now) < 2 {
		t.Fatalf("captures of %d and %d rows", len(was), len(now))
	}
	fell := 0
	for r := range now {
		if len(was[r]) != len(now[r]) {
			t.Fatalf("row %d: %d cells, was %d", r, len(now[r]), len(was[r]))
		}
		for c, cell := range now[r] {
			if now[0][c] != "transform(s)" || r == 0 {
				if cell != was[r][c] {
					t.Errorf("row %d (%s %s) column %s: %q, was %q", r, now[r][0], now[r][1], now[0][c], cell, was[r][c])
				}
				continue
			}
			a, errA := strconv.ParseFloat(was[r][c], 64)
			b, errB := strconv.ParseFloat(cell, 64)
			switch {
			case errA != nil || errB != nil:
				t.Fatalf("row %d: transform(s) %q, was %q", r, cell, was[r][c])
			case b < a:
				fell++
			case b > a && now[r][1] != "OTM":
				t.Errorf("%s %s: transform(s) rose %v -> %v", now[r][0], now[r][1], a, b)
			}
		}
	}
	if fell < 7 {
		t.Errorf("transform(s) fell in %d rows, want every DP and EP row and TPC-ds OTM (7)", fell)
	}
}
