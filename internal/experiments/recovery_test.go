package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"incshrink/internal/core"
	"incshrink/internal/sim"
	"incshrink/internal/snapshot"
	"incshrink/internal/workload"
)

// restartAt is runKind with every framework engine — sDPTimer, sDPANT, EP
// and OTM — snapshotted at step k, restored into a fresh framework ("a fresh
// process") and continued. NM keeps no state, so it runs uninterrupted.
func restartAt(k int) func(sim.EngineKind, core.Config, *workload.Trace) (sim.Result, error) {
	return func(kind sim.EngineKind, cfg core.Config, tr *workload.Trace) (sim.Result, error) {
		e, err := sim.Build(kind, cfg, tr.Config)
		if err != nil {
			return sim.Result{}, err
		}
		if _, ok := e.(*core.Framework); !ok {
			return sim.Run(e, tr), nil
		}
		return sim.RunWithRestart(e, tr, k, func(e core.Engine) (core.Engine, error) {
			var snap bytes.Buffer
			enc := snapshot.NewEncoder(&snap)
			e.(*core.Framework).EncodeState(enc)
			if err := enc.Finish(); err != nil {
				return nil, err
			}
			// A fresh engine stands in for a fresh process: nothing
			// carries over except the snapshot bytes.
			fresh, err := sim.Build(kind, cfg, tr.Config)
			if err != nil {
				return nil, err
			}
			dec := snapshot.NewDecoder(bytes.NewReader(snap.Bytes()))
			fresh.(*core.Framework).DecodeState(dec)
			if err := dec.Finish(); err != nil {
				return nil, err
			}
			return fresh, nil
		})
	}
}

// TestCrashRecoveryReproducesGoldens is the acceptance criterion of
// durability: run the paper-default evaluation with every framework engine
// snapshotted at step k, restored into a fresh framework, and continued to
// step 120 — the Table 2 and Figure 4 report bytes must equal the pinned
// seed-1 goldens exactly, for sDPTimer, sDPANT, EP and OTM, at every k in
// {1, 37, 60, 119}. Anything short of bit-exact engine restoration (a lost
// RNG draw, a dropped cache slot, a meter tick) shifts a count or a simulated
// cost somewhere in the reports and fails the byte comparison. Then the same
// with a kill at every step of a 40-step run against the run that never
// stopped: the carry is snapshotted mid-window — pre-filled blocks still
// retiring, every mix of live blocks — at each of them.
func TestCrashRecoveryReproducesGoldens(t *testing.T) {
	defer func() {
		runKind = sim.RunKind
		ResetCaches()
	}()
	reports := func(p Params) map[string][]byte {
		// The result cache is keyed by cell, not by execution function:
		// force a cold re-run under the harness in place.
		ResetCaches()
		out := map[string][]byte{}
		for _, name := range []string{"table2", "fig4"} {
			var got bytes.Buffer
			if err := Registry[name](context.Background(), p, &got); err != nil {
				t.Fatal(err)
			}
			out[name] = got.Bytes()
		}
		return out
	}

	p := Params{Steps: 120, Seed: 1, Workers: 1}
	goldens := map[string][]byte{}
	for _, name := range []string{"table2", "fig4"} {
		want, err := os.ReadFile(filepath.Join("testdata", "golden_"+name+"_seed1_steps120.txt"))
		if err != nil {
			t.Fatalf("missing golden: %v", err)
		}
		goldens[name] = want
	}
	for _, k := range []int{1, 37, 60, 119} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			runKind = restartAt(k)
			for name, got := range reports(p) {
				if !bytes.Equal(got, goldens[name]) {
					t.Errorf("%s after snapshot/restore at step %d diverged from the golden\n--- got ---\n%s", name, k, got)
				}
			}
		})
	}

	t.Run("every step of 40", func(t *testing.T) {
		p := Params{Steps: 40, Seed: 1, Workers: 1}
		runKind = sim.RunKind
		want := reports(p)
		for k := 1; k < p.Steps; k++ {
			runKind = restartAt(k)
			for name, got := range reports(p) {
				if !bytes.Equal(got, want[name]) {
					t.Fatalf("%s after snapshot/restore at step %d diverged from the run that never stopped\n--- got ---\n%s--- want ---\n%s",
						name, k, got, want[name])
				}
			}
		}
	})
}
