package incshrink_test

import (
	"testing"

	"incshrink"
	"incshrink/internal/corebench"
)

// The core data-plane benchmarks drive the public API at the paper-default
// deployment with a deterministic synthetic stream, both defined once in
// internal/corebench so `incshrink-bench -exp core` (the source of the
// BENCH_core.json trajectory) measures exactly the same workload.

func benchOpen(b *testing.B) *incshrink.DB {
	b.Helper()
	db, err := corebench.Open()
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func benchStep(b *testing.B, db *incshrink.DB, t int) {
	b.Helper()
	if err := corebench.Step(db, t); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAdvance(b *testing.B) {
	db := benchOpen(b)
	for t := 0; t < 64; t++ { // steady state: scratch warm, windows full
		benchStep(b, db, t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStep(b, db, 64+i)
	}
}

// BenchmarkAdvanceBatch8 measures the batched ingestion path at batch size
// 8 on the merged deployment (corebench.MergedDeployment — one coalesced
// Transform per shrink interval); ns/op is per step (each iteration applies
// 8 steps through one AdvanceBatch), directly comparable to
// BenchmarkAdvance.
func BenchmarkAdvanceBatch8(b *testing.B) {
	const k = 8
	db, err := corebench.OpenMerged()
	if err != nil {
		b.Fatal(err)
	}
	for t := 0; t < 64; t++ { // steady state: scratch warm, windows full
		benchStep(b, db, t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.AdvanceBatch(corebench.Steps(64+k*i, k)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/step")
}

// BenchmarkAdvanceANT measures Advance on the CPDB/sDPANT deployment
// (corebench.ANTDeployment), where nearly every synchronisation sorts a cache
// length the process has not sorted before — the case the paper-default
// stream of BenchmarkAdvance never meets.
func BenchmarkAdvanceANT(b *testing.B) {
	db, steps, err := corebench.WarmANT(b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, s := range steps {
		if err := db.Advance(s.Left, s.Right); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCount(b *testing.B) {
	db := benchOpen(b)
	for t := 0; t < 256; t++ {
		benchStep(b, db, t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Count()
	}
}

func BenchmarkCountWhere(b *testing.B) {
	db := benchOpen(b)
	for t := 0; t < 256; t++ {
		benchStep(b, db, t)
	}
	cond := corebench.WhereCond()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.CountWhere(cond); err != nil {
			b.Fatal(err)
		}
	}
}
