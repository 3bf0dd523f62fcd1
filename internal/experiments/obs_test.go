package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incshrink/internal/core"
	"incshrink/internal/obs"
	"incshrink/internal/sim"
	"incshrink/internal/workload"
)

// TestObservedGoldensIdentical pins the "observe but never perturb"
// invariant at experiment scale: with the full observability stack attached
// to every engine — phase timing, state gauges, MPC predicted-vs-measured
// cost accounting — the Table 2 and Figure 4 reports must stay byte-equal
// to the pinned goldens. The goldens embed every count, DP noise draw and
// modeled cost, so a single instrumentation read feeding back into engine
// state fails the byte comparison.
func TestObservedGoldensIdentical(t *testing.T) {
	p := Params{Steps: 120, Seed: 1, Workers: 1}
	reg := obs.NewRegistry()
	ins := core.NewInstrumentSet(reg)

	defer func() {
		runKind = sim.RunKind
		ResetCaches()
	}()
	runKind = func(kind sim.EngineKind, cfg core.Config, tr *workload.Trace) (sim.Result, error) {
		e, err := sim.Build(kind, cfg, tr.Config)
		if err != nil {
			return sim.Result{}, err
		}
		if fw, ok := e.(*core.Framework); ok {
			fw.SetInstruments(ins.ForView(string(kind)))
		}
		return sim.Run(e, tr), nil
	}
	// The result cache is keyed by cell, not by execution function: force a
	// cold run under the instrumented harness.
	ResetCaches()

	for _, name := range []string{"table2", "fig4"} {
		want, err := os.ReadFile(filepath.Join("testdata", "golden_"+name+"_seed1_steps120.txt"))
		if err != nil {
			t.Fatalf("missing golden: %v", err)
		}
		var got bytes.Buffer
		if err := Registry[name](context.Background(), p, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s with observability attached diverged from the golden\n--- got ---\n%s", name, got.String())
		}
	}

	// Guard against a vacuous pass: the engines must actually have been
	// instrumented.
	text := reg.DumpText()
	if !strings.Contains(text, `incshrink_core_phase_seconds_count{view="DP-Timer",phase="shrink"}`) ||
		!strings.Contains(text, "incshrink_mpc_predicted_vs_measured") {
		t.Errorf("no instrumentation recorded during the golden runs:\n%s", text)
	}
}
