package incshrink_test

import "testing"

// The core data-plane benchmarks drive the public API on the deployments of
// deployments_test.go; TestAdvanceBatchStepAllocs pins their warm
// allocations exactly. Wall time is cmd/benchmark's to judge.

func BenchmarkAdvance(b *testing.B) {
	db := openStream(b, false, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := streamStep(db, 64+i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdvanceBatch8 measures the batched ingestion path at batch size
// 8 on the merged deployment (one coalesced Transform per shrink interval);
// ns/op is per step (each iteration applies 8 steps through one
// AdvanceBatch), directly comparable to BenchmarkAdvance.
func BenchmarkAdvanceBatch8(b *testing.B) {
	const k = 8
	db := openStream(b, true, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.AdvanceBatch(streamSteps(64+k*i, k)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/step")
}

// BenchmarkAdvanceANT measures Advance on the CPDB/sDPANT deployment, where
// nearly every synchronisation sorts a cache length the process has not
// sorted before — the case the paper-default stream of BenchmarkAdvance
// never meets.
func BenchmarkAdvanceANT(b *testing.B) {
	db, steps := warmANT(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for _, s := range steps {
		if err := db.Advance(s.Left, s.Right); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCount(b *testing.B) {
	db := openStream(b, false, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Count()
	}
}

func BenchmarkCountWhere(b *testing.B) {
	db := openStream(b, false, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.CountWhere(streamWhere); err != nil {
			b.Fatal(err)
		}
	}
}
