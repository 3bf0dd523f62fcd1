package sim

import (
	"fmt"
	"reflect"
	"testing"

	"incshrink/internal/core"
	"incshrink/internal/workload"
)

// TestRunBatchedMatchesRun is the sim-level batch-vs-sequential
// equivalence: for both DP engines and every (QueryEvery, k) combination —
// including chunks of 120 uninterrupted steps — RunKindBatched must reproduce
// Run's Result exactly: counts, L1 statistics, simulated costs, series.
func TestRunBatchedMatchesRun(t *testing.T) {
	wl := workload.TPCDS(240, 5)
	tr := trace(t, wl)
	for _, kind := range []EngineKind{KindTimer, KindANT} {
		for _, q := range []int{1, 5, 120} {
			for _, k := range []int{1, 7, 120} {
				t.Run(fmt.Sprintf("%s/q=%d/k=%d", kind, q, k), func(t *testing.T) {
					opts := Options{QueryEvery: q, KeepSeries: true}
					want, err := RunKind(kind, core.DefaultConfig(wl, 5), tr, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := RunKindBatched(kind, core.DefaultConfig(wl, 5), tr, opts, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("batched run diverged from sequential:\n got %+v\nwant %+v", got, want)
					}
				})
			}
		}
	}
}

// TestRunBatchedFallsBack covers engines without StepBatch: the baselines
// run through the sequential path and still produce Run's result.
func TestRunBatchedFallsBack(t *testing.T) {
	wl := workload.TPCDS(60, 5)
	tr := trace(t, wl)
	want, err := RunKind(KindNM, core.DefaultConfig(wl, 5), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunKindBatched(KindNM, core.DefaultConfig(wl, 5), tr, Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("fallback path diverged from Run")
	}
}
