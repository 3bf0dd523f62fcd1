package incshrink_test

import (
	"testing"

	"incshrink"
	"incshrink/internal/workload"
)

// The root package's benchmark deployments, shared by its Go benchmarks
// (core_bench_test.go) and the tests that pin their exact counts: the
// paper-default engine fed a deterministic synthetic stream, the same engine
// with window merging on, and the CPDB/sDPANT engine that cmd/benchmark's
// cpdb_query workload preloads, warmed on the generated CPDB trace.

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// openStream opens the paper-default deployment (Within 10, ε 1.5, T 10,
// seed 1), with MergeWindows set to merge, and advances it through the
// stream's first warm steps, so the scratch is warm and the windows full.
func openStream(tb testing.TB, merge bool, warm int) *incshrink.DB {
	tb.Helper()
	db, err := incshrink.Open(
		incshrink.ViewDef{Within: 10},
		incshrink.Options{Epsilon: 1.5, T: 10, Seed: 1, MergeWindows: merge},
	)
	if err != nil {
		tb.Fatal(err)
	}
	for t := 0; t < warm; t++ {
		if err := streamStep(db, t); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// streamStep advances db one step with the stream's upload at time t: three
// left rows and one right row joining the first of them within the window.
func streamStep(db *incshrink.DB, t int) error {
	k := int64(t)
	left := []incshrink.Row{{3 * k, k}, {3*k + 1, k}, {3*k + 2, k}}
	right := []incshrink.Row{{3 * k, k + 2}}
	return db.Advance(left, right)
}

// streamSteps builds n contiguous steps of the stream starting at time t0,
// the AdvanceBatch form of streamStep. The whole batch is backed by three
// allocations (the step list, one row-header arena, one value arena), so a
// batched benchmark measures the engine, not the stream.
func streamSteps(t0, n int) []incshrink.StepRows {
	out := make([]incshrink.StepRows, n)
	rows := make([]incshrink.Row, 0, 4*n)
	vals := make([]int64, 0, 8*n)
	row := func(a, b int64) {
		vals = append(vals, a, b)
		rows = append(rows, incshrink.Row(vals[len(vals)-2:len(vals):len(vals)]))
	}
	for i := range out {
		k := int64(t0 + i)
		lo := len(rows)
		row(3*k, k)
		row(3*k+1, k)
		row(3*k+2, k)
		row(3*k, k+2)
		out[i] = incshrink.StepRows{Left: rows[lo : lo+3 : lo+3], Right: rows[lo+3 : lo+4 : lo+4]}
	}
	return out
}

// streamWhere is the filtered count the CountWhere benchmark runs (the
// paper's Q1 shape).
var streamWhere = incshrink.Where{Col: "right.time", Minus: "left.time", Cmp: incshrink.Le, Val: 10}

// antWarmSteps is how many trace steps warmANT replays before handing the
// engine over: long enough that the cache length has settled into its
// stationary range and the view is past its first few hundred syncs.
const antWarmSteps = 1500

// warmANT opens the CPDB/sDPANT deployment, replays the warm-up prefix of
// the CPDB trace and returns the engine with the next n steps of the trace.
// sDPANT orders a cache whose length is whatever the DP-noised fetches left
// behind, so nearly every synchronisation meets a new length, which the
// paper-default stream never does.
func warmANT(tb testing.TB, n int) (*incshrink.DB, []incshrink.StepRows) {
	tb.Helper()
	db, err := incshrink.Open(
		incshrink.ViewDef{Within: 10, Omega: 12, Budget: 24, RightPublic: true},
		incshrink.Options{Protocol: incshrink.SDPANT, Theta: 30, UploadEvery: 5, MaxLeft: 24, MaxRight: 56, Seed: 1},
	)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := workload.Generate(workload.CPDB(antWarmSteps+n, 1))
	if err != nil {
		tb.Fatal(err)
	}
	steps := make([]incshrink.StepRows, len(tr.Steps))
	for i, st := range tr.Steps {
		for _, r := range st.Left {
			steps[i].Left = append(steps[i].Left, incshrink.Row(r.Row))
		}
		for _, r := range st.Right {
			steps[i].Right = append(steps[i].Right, incshrink.Row(r.Row))
		}
	}
	for _, s := range steps[:antWarmSteps] {
		if err := db.Advance(s.Left, s.Right); err != nil {
			tb.Fatal(err)
		}
	}
	return db, steps[antWarmSteps:]
}
