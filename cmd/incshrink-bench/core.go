package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"incshrink/internal/corebench"
)

// The core experiment microbenchmarks the engine's data plane — the
// columnar buffer path behind Advance, Count and CountWhere — at
// the paper-default deployment (Within=10, epsilon=1.5, T=10, seed 1) with
// a deterministic synthetic stream (three left rows and one joining right
// row per step, mirroring the root-package core benchmarks). It writes a
// machine-readable BENCH_core.json so the Go-side performance trajectory
// can be tracked across PRs, alongside the recorded pre-refactor
// (row-oriented []Entry data plane) baseline for context.

// CoreOpReport is one operation's measurement.
type CoreOpReport struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Ops         int     `json:"ops"`
}

// BatchPoint is one batch size's measurement on the merged deployment.
type BatchPoint struct {
	K             int     `json:"k"`
	NsPerStep     float64 `json:"ns_per_step"`
	AllocsPerStep int64   `json:"allocs_per_step"`
	// Speedup is Advance ns/op over NsPerStep (higher is better).
	Speedup float64 `json:"speedup_vs_advance"`
	// MergedComparators is the compare-exchange count of the single Batcher
	// network a k-block merged segment runs; SequentialComparators is the
	// total for the k per-step networks it replaces. Their ratio is the
	// superlinear saving the wall-clock speedup realizes.
	MergedComparators     int `json:"merged_comparators"`
	SequentialComparators int `json:"sequential_comparators"`
}

// CoreReport is the machine-readable core data-plane benchmark report.
type CoreReport struct {
	Experiment string `json:"experiment"`
	Deployment string `json:"deployment"`

	Advance CoreOpReport `json:"advance"`
	// BatchDeployment names the deployment of the batched measurements:
	// the paper-default engine with window merging on, so AdvanceBatch runs
	// one coalesced Transform per shrink interval (corebench.MergedDeployment).
	BatchDeployment string `json:"batch_deployment"`
	// AdvanceBatch8 is the batched ingestion path at batch size 8 on the
	// merged deployment, normalized per step (one op = one step, not one
	// 8-step batch), so it is directly comparable to Advance. It is the k=8
	// point of BatchCurve.
	AdvanceBatch8 CoreOpReport `json:"advance_batch8"`
	// BatchCurve measures AdvanceBatch at several batch sizes on the merged
	// deployment: wall-clock per step, speedup over Advance, and the
	// compare-exchange counts that explain it (one Batcher network over the
	// merged window versus k per-step networks).
	BatchCurve []BatchPoint `json:"batch_speedup_curve"`
	// ANTDeployment names the deployment of AdvanceANT: the CPDB trace under
	// sDPANT, whose synchronisations keep sorting new cache lengths
	// (corebench.ANTDeployment).
	ANTDeployment string       `json:"ant_deployment"`
	AdvanceANT    CoreOpReport `json:"advance_ant"`
	Count         CoreOpReport `json:"count"`
	CountWhere    CoreOpReport `json:"count_where"`

	// Baseline is the same benchmark recorded on the pre-refactor
	// row-oriented engine (commit 5babe3b, this container class), kept in
	// the report so the improvement is visible without digging through git
	// history.
	Baseline struct {
		Commit     string       `json:"commit"`
		Advance    CoreOpReport `json:"advance"`
		Count      CoreOpReport `json:"count"`
		CountWhere CoreOpReport `json:"count_where"`
	} `json:"baseline"`

	// AdvanceAllocsImprovement is baseline allocs/op over current allocs/op
	// on the Advance hot path — the acceptance metric of the columnar
	// refactor (>= 2 required).
	AdvanceAllocsImprovement float64 `json:"advance_allocs_improvement"`
	// BatchPerStepSpeedup is Advance ns/op over AdvanceBatch8 per-step
	// ns/op: how much cheaper one ingested step is inside an 8-step batch
	// than as its own Advance call, at the engine layer (serving-layer
	// amortization is cmd/benchmark's serve_http workload).
	BatchPerStepSpeedup float64 `json:"batch_per_step_speedup"`
}

func toOpReport(r testing.BenchmarkResult) CoreOpReport {
	return CoreOpReport{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Ops:         r.N,
	}
}

// runCore benchmarks the Advance/Count/CountWhere hot paths and writes the
// report to jsonOut.
func runCore(jsonOut string) error {
	var rep CoreReport
	rep.Experiment = "core"
	rep.Deployment = corebench.Deployment

	var stepErr error
	fail := func(err error) { stepErr = err }

	advance := testing.Benchmark(func(b *testing.B) {
		db, err := corebench.Open()
		if err != nil {
			fail(err)
			b.SkipNow()
		}
		for t := 0; t < 64; t++ { // steady state: scratch warm, windows full
			if err := corebench.Step(db, t); err != nil {
				fail(err)
				b.SkipNow()
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := corebench.Step(db, 64+i); err != nil {
				fail(err)
				b.SkipNow()
			}
		}
	})
	if stepErr != nil {
		return stepErr
	}
	rep.Advance = toOpReport(advance)

	rep.BatchDeployment = corebench.MergedDeployment
	for _, k := range []int{1, 8, 32} {
		batchK := k
		advanceBatch := testing.Benchmark(func(b *testing.B) {
			db, err := corebench.OpenMerged()
			if err != nil {
				fail(err)
				b.SkipNow()
			}
			for t := 0; t < 64; t++ {
				if err := corebench.Step(db, t); err != nil {
					fail(err)
					b.SkipNow()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.AdvanceBatch(corebench.Steps(64+batchK*i, batchK)); err != nil {
					fail(err)
					b.SkipNow()
				}
			}
		})
		if stepErr != nil {
			return stepErr
		}
		// Normalize the k-step batch op to per-step numbers. The comparator
		// counts assume one segment per batch (k <= T); past that the engine
		// splits at observation points and the merged count is per segment.
		pt := BatchPoint{
			K:                     batchK,
			NsPerStep:             float64(advanceBatch.T.Nanoseconds()) / float64(advanceBatch.N*batchK),
			AllocsPerStep:         advanceBatch.AllocsPerOp() / int64(batchK),
			MergedComparators:     corebench.MergedComparators(batchK),
			SequentialComparators: batchK * corebench.MergedComparators(1),
		}
		rep.BatchCurve = append(rep.BatchCurve, pt)
		if batchK == 8 {
			rep.AdvanceBatch8 = CoreOpReport{
				NsPerOp:     pt.NsPerStep,
				AllocsPerOp: advanceBatch.AllocsPerOp() / int64(batchK),
				BytesPerOp:  advanceBatch.AllocedBytesPerOp() / int64(batchK),
				Ops:         advanceBatch.N * batchK,
			}
		}
	}

	rep.ANTDeployment = corebench.ANTDeployment
	advanceANT := testing.Benchmark(func(b *testing.B) {
		db, steps, err := corebench.WarmANT(b.N)
		if err != nil {
			fail(err)
			b.SkipNow()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for _, s := range steps {
			if err := db.Advance(s.Left, s.Right); err != nil {
				fail(err)
				b.SkipNow()
			}
		}
	})
	if stepErr != nil {
		return stepErr
	}
	rep.AdvanceANT = toOpReport(advanceANT)

	queryDB, err := corebench.Open()
	if err != nil {
		return err
	}
	for t := 0; t < 256; t++ {
		if err := corebench.Step(queryDB, t); err != nil {
			return err
		}
	}
	rep.Count = toOpReport(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			queryDB.Count()
		}
	}))
	cond := corebench.WhereCond()
	rep.CountWhere = toOpReport(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := queryDB.CountWhere(cond); err != nil {
				fail(err)
				b.SkipNow()
			}
		}
	}))
	if stepErr != nil {
		return stepErr
	}

	// Pre-refactor baseline, measured with the identical benchmark on the
	// row-oriented []Entry data plane immediately before the columnar
	// refactor landed.
	rep.Baseline.Commit = "5babe3b"
	rep.Baseline.Advance = CoreOpReport{NsPerOp: 613272, AllocsPerOp: 1986, BytesPerOp: 255161, Ops: 4039}
	rep.Baseline.Count = CoreOpReport{NsPerOp: 656.7, AllocsPerOp: 0, BytesPerOp: 0, Ops: 3421642}
	rep.Baseline.CountWhere = CoreOpReport{NsPerOp: 1616, AllocsPerOp: 3, BytesPerOp: 128, Ops: 1501594}
	// A zero-alloc Advance is the best case, not a regression: divide by at
	// least one so the improvement stays meaningful (and finite for JSON).
	denom := rep.Advance.AllocsPerOp
	if denom < 1 {
		denom = 1
	}
	rep.AdvanceAllocsImprovement = float64(rep.Baseline.Advance.AllocsPerOp) / float64(denom)
	if rep.AdvanceBatch8.NsPerOp > 0 {
		rep.BatchPerStepSpeedup = rep.Advance.NsPerOp / rep.AdvanceBatch8.NsPerOp
	}
	for i := range rep.BatchCurve {
		if rep.BatchCurve[i].NsPerStep > 0 {
			rep.BatchCurve[i].Speedup = rep.Advance.NsPerOp / rep.BatchCurve[i].NsPerStep
		}
	}

	fmt.Printf("core: advance %.0f ns/op, %d allocs/op, %d B/op (baseline %d allocs/op, %.0fx fewer)\n",
		rep.Advance.NsPerOp, rep.Advance.AllocsPerOp, rep.Advance.BytesPerOp,
		rep.Baseline.Advance.AllocsPerOp, rep.AdvanceAllocsImprovement)
	for _, pt := range rep.BatchCurve {
		fmt.Printf("core: advance-batch k=%-2d %.0f ns/step, %d allocs/step (%.2fx per-step speedup; %d vs %d comparators)\n",
			pt.K, pt.NsPerStep, pt.AllocsPerStep, pt.Speedup, pt.MergedComparators, pt.SequentialComparators)
	}
	fmt.Printf("core: advance-ant %.0f ns/op, %d allocs/op (CPDB trace under sDPANT)\n",
		rep.AdvanceANT.NsPerOp, rep.AdvanceANT.AllocsPerOp)
	fmt.Printf("core: count %.1f ns/op (%d allocs/op), countWhere %.1f ns/op (%d allocs/op)\n",
		rep.Count.NsPerOp, rep.Count.AllocsPerOp, rep.CountWhere.NsPerOp, rep.CountWhere.AllocsPerOp)

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("core: report written to %s\n", jsonOut)
	return nil
}
