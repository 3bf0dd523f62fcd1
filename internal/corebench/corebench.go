// Package corebench defines the canonical data-plane benchmark deployments —
// the paper-default engine fed a deterministic synthetic stream, and the
// CPDB/sDPANT engine fed the generated CPDB trace — shared by the
// root-package Go benchmarks (core_bench_test.go) and the
// `incshrink-bench -exp core` report generator, so the two can never
// measure different workloads.
package corebench

import (
	"incshrink"
	"incshrink/internal/mpc"
	"incshrink/internal/workload"
)

// Deployment describes the benchmark configuration in human-readable form
// (recorded in BENCH_core.json).
const Deployment = "ViewDef{Within:10} Options{Epsilon:1.5,T:10,Seed:1}, 3 left + 1 right rows/step"

// MergedDeployment is Deployment with window merging on — the batched
// benchmarks run it so AdvanceBatch exercises the coalesced Transform path.
// On this stream every key pairs exactly once, so the merged run's counts
// match the sequential run's; the simulated MPC cost (intentionally) does
// not — that saving is what batch_per_step_speedup measures.
const MergedDeployment = Deployment + " +MergeWindows"

// Open opens the paper-default deployment.
func Open() (*incshrink.DB, error) {
	return incshrink.Open(
		incshrink.ViewDef{Within: 10},
		incshrink.Options{Epsilon: 1.5, T: 10, Seed: 1},
	)
}

// OpenMerged opens the paper-default deployment with window merging enabled.
func OpenMerged() (*incshrink.DB, error) {
	return incshrink.Open(
		incshrink.ViewDef{Within: 10},
		incshrink.Options{Epsilon: 1.5, T: 10, Seed: 1, MergeWindows: true},
	)
}

// ANTDeployment describes the sDPANT benchmark configuration: the CPDB-like
// deployment cmd/benchmark's cpdb_query workload preloads. sDPANT sorts a
// cache whose length is whatever the DP-noised fetches left behind, so
// nearly every synchronisation sorts a new length — the shape the
// paper-default sDPTimer stream above never produces.
const ANTDeployment = "ViewDef{Within:10,Omega:12,Budget:24,RightPublic:true} " +
	"Options{Protocol:SDPANT,Theta:30,UploadEvery:5,MaxLeft:24,MaxRight:56,Seed:1}, workload.CPDB(seed 1) trace"

// antWarmSteps is how many trace steps WarmANT replays before handing the
// engine over: long enough that the cache length has settled into its
// stationary range and the view is past its first few hundred syncs.
const antWarmSteps = 1500

// WarmANT opens the CPDB/sDPANT deployment, replays the warm-up prefix of
// the CPDB trace and returns the engine with the next n steps of the trace,
// ready to be measured.
func WarmANT(n int) (*incshrink.DB, []incshrink.StepRows, error) {
	db, err := incshrink.Open(
		incshrink.ViewDef{Within: 10, Omega: 12, Budget: 24, RightPublic: true},
		incshrink.Options{Protocol: incshrink.SDPANT, Theta: 30, UploadEvery: 5, MaxLeft: 24, MaxRight: 56, Seed: 1},
	)
	if err != nil {
		return nil, nil, err
	}
	tr, err := workload.Generate(workload.CPDB(antWarmSteps+n, 1))
	if err != nil {
		return nil, nil, err
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
			return nil, nil, err
		}
	}
	return db, steps[antWarmSteps:], nil
}

// The deployment's public sizes: an upload block is padded to MaxLeft +
// MaxRight = 32 + 32 rows, and the join carry holds the 9 blocks of the
// invocations a record survives after its first (records participate in at
// most min(budget/omega, Within/UploadEvery+1) = 10 Transform invocations).
const (
	blockRows = 2 * 32
	carryRows = 9 * blockRows
)

// MergedAdapterN is the truncated-join input size of one merged segment
// covering k upload blocks at this deployment: the carry plus the k new
// padded blocks.
func MergedAdapterN(k int) int { return carryRows + k*blockRows }

// MergedComparators is the compare-exchanges that segment's Transform is
// charged: one sort of the k new blocks and one merge of them into the
// carry. TestMergedAdapterNMatchesMeter pins both closed forms against the
// engine's actual meter charges.
func MergedComparators(k int) int {
	return mpc.SortCompareExchanges(k*blockRows) + mpc.MergeCompareExchanges(carryRows, k*blockRows)
}

// Step advances db one step with the deterministic synthetic upload: three
// left rows and one right row joining the first of them within the window.
func Step(db *incshrink.DB, t int) error {
	k := int64(t)
	left := []incshrink.Row{{3 * k, k}, {3*k + 1, k}, {3*k + 2, k}}
	right := []incshrink.Row{{3 * k, k + 2}}
	return db.Advance(left, right)
}

// rowsPerStep is the stream's fixed shape: three left rows and one right
// row, each {key, time}.
const (
	leftPerStep  = 3
	rightPerStep = 1
	rowInts      = 2
)

// Steps builds n contiguous steps of the same stream starting at time t0 —
// the AdvanceBatch form of Step, so the batched benchmarks ingest the
// identical workload. The whole batch is backed by three allocations (the
// step list, one row-header arena, one value arena) so the batched
// benchmarks measure the engine, not the workload generator.
func Steps(t0, n int) []incshrink.StepRows {
	out := make([]incshrink.StepRows, n)
	rows := make([]incshrink.Row, 0, n*(leftPerStep+rightPerStep))
	vals := make([]int64, 0, n*(leftPerStep+rightPerStep)*rowInts)
	row := func(a, b int64) {
		vals = append(vals, a, b)
		rows = append(rows, incshrink.Row(vals[len(vals)-rowInts:len(vals):len(vals)]))
	}
	for i := range out {
		k := int64(t0 + i)
		lo := len(rows)
		row(3*k, k)
		row(3*k+1, k)
		row(3*k+2, k)
		out[i].Left = rows[lo : lo+leftPerStep : lo+leftPerStep]
		lo = len(rows)
		row(3*k, k+2)
		out[i].Right = rows[lo : lo+rightPerStep : lo+rightPerStep]
	}
	return out
}

// WhereCond is the filtered-count condition the CountWhere benchmark runs
// (the paper's Q1 shape).
func WhereCond() incshrink.Where {
	return incshrink.Where{Col: "right.time", Minus: "left.time", Cmp: incshrink.Le, Val: 10}
}
