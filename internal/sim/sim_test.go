package sim

import (
	"math"
	"testing"

	"incshrink/internal/core"
	"incshrink/internal/workload"
)

func trace(t *testing.T, cfg workload.Config) *workload.Trace {
	t.Helper()
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunTimerCollectsMetrics(t *testing.T) {
	wl := workload.TPCDS(200, 5)
	tr := trace(t, wl)
	r, err := RunKind(KindTimer, core.DefaultConfig(wl, 5), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgQET <= 0 {
		t.Error("AvgQET should be positive")
	}
	if r.ViewBytes <= 0 {
		t.Error("view bytes should be positive")
	}
}

func TestBuildAllKinds(t *testing.T) {
	wl := workload.TPCDS(50, 5)
	cfg := core.DefaultConfig(wl, 5)
	for _, k := range AllKinds {
		e, err := Build(k, cfg, wl)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if e == nil {
			t.Fatalf("%s: nil engine", k)
		}
	}
	if _, err := Build("bogus", cfg, wl); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestTable2Shape is the headline end-to-end check: the relative ordering of
// the five candidates must match Table 2 on both accuracy and efficiency.
func TestTable2Shape(t *testing.T) {
	wl := workload.TPCDS(400, 77)
	tr := trace(t, wl)
	cfg := core.DefaultConfig(wl, 77)
	cfg.T = 10
	res := map[EngineKind]Result{}
	for _, k := range AllKinds {
		r, err := RunKind(k, cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		res[k] = r
	}
	// Accuracy: NM and EP exact (or near), DP protocols small, OTM huge.
	if res[KindNM].AvgL1 != 0 {
		t.Errorf("NM error %v, want 0", res[KindNM].AvgL1)
	}
	if res[KindEP].AvgL1 > 5 {
		t.Errorf("EP error %v, want ~0", res[KindEP].AvgL1)
	}
	for _, k := range []EngineKind{KindTimer, KindANT} {
		if res[k].AvgL1 >= res[KindOTM].AvgL1 {
			t.Errorf("%s error %v not below OTM %v", k, res[k].AvgL1, res[KindOTM].AvgL1)
		}
	}
	if res[KindOTM].AvgRel < 0.5 {
		t.Errorf("OTM relative error %v, want near 1", res[KindOTM].AvgRel)
	}
	// Efficiency: QET(NM) >> QET(EP) >> QET(DP) >= QET(OTM)-ish.
	if res[KindNM].AvgQET < 50*res[KindTimer].AvgQET {
		t.Errorf("NM QET %v not far above DP-Timer %v", res[KindNM].AvgQET, res[KindTimer].AvgQET)
	}
	if res[KindEP].AvgQET < 3*res[KindTimer].AvgQET {
		t.Errorf("EP QET %v not above DP-Timer %v", res[KindEP].AvgQET, res[KindTimer].AvgQET)
	}
	// View sizes: EP's exhaustively padded view dwarfs the DP views.
	if res[KindEP].ViewBytes < 5*res[KindTimer].ViewBytes {
		t.Errorf("EP view %d bytes not far above DP view %d", res[KindEP].ViewBytes, res[KindTimer].ViewBytes)
	}
	// DP protocols answer with small relative error (paper: ~3-4%).
	for _, k := range []EngineKind{KindTimer, KindANT} {
		if res[k].AvgRel > 0.30 {
			t.Errorf("%s relative error %v too large", k, res[k].AvgRel)
		}
	}
}

func TestImprovement(t *testing.T) {
	if Improvement(100, 4) != 25 {
		t.Error("ratio wrong")
	}
	if !math.IsInf(Improvement(5, 0), 1) {
		t.Error("x=0 should be +Inf")
	}
	if Improvement(0, 0) != 1 {
		t.Error("0/0 should be 1")
	}
}

func TestRunDeterministic(t *testing.T) {
	wl := workload.TPCDS(150, 9)
	tr := trace(t, wl)
	a, _ := RunKind(KindANT, core.DefaultConfig(wl, 9), tr)
	b, _ := RunKind(KindANT, core.DefaultConfig(wl, 9), tr)
	if a.AvgL1 != b.AvgL1 || a.AvgQET != b.AvgQET || a.ViewBytes != b.ViewBytes {
		t.Error("same seed produced different results")
	}
}
