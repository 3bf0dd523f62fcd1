package incshrink

import (
	"bytes"
	"testing"

	"incshrink/internal/core"
	"incshrink/internal/obs"
)

// TestInstrumentedRunIdentical pins the observability layer's load-bearing
// invariant at the public API: a fully instrumented DB — metrics registry
// attached, every phase timed, cost accounting on — runs byte-identical to
// a bare one. Same deployment, same seed, same uploads; every query answer
// must match along the way, and the final durability snapshots must be
// byte-for-byte equal (the snapshot captures the DP protocols' RNG
// positions, budgets and caches, so any instrumentation leak into engine
// state shows up here). Timing observes; it never feeds back.
func TestInstrumentedRunIdentical(t *testing.T) {
	def := ViewDef{Within: 7}
	opts := Options{Epsilon: 1.5, T: 5, MaxLeft: 16, MaxRight: 16, Seed: 99}

	bare, err := Open(def, opts)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Open(def, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ins := core.NewInstrumentSet(reg)
	observed.Instrument(ins.ForView("pinned"))

	for step := 0; step < 120; step++ {
		// A deterministic workload shape with matches, misses and idle
		// steps — variety, not randomness, so both runs see the same rows.
		var left, right []Row
		if step%5 != 4 {
			k := int64(step*2 + 1)
			left = append(left, Row{k, int64(step)})
			if step%3 != 0 {
				right = append(right, Row{k, int64(step + step%4)})
			}
		}
		if err := bare.Advance(left, right); err != nil {
			t.Fatalf("bare advance %d: %v", step, err)
		}
		if err := observed.Advance(left, right); err != nil {
			t.Fatalf("observed advance %d: %v", step, err)
		}

		if step%7 == 0 {
			bn, _ := bare.Count()
			on, _ := observed.Count()
			if bn != on {
				t.Fatalf("step %d: count diverged: bare=%d observed=%d", step, bn, on)
			}
		}
		if step%11 == 0 {
			cond := Where{Col: "right.time", Minus: "left.time", Cmp: Le, Val: 3}
			bn, _, berr := bare.CountWhere(cond)
			on, _, oerr := observed.CountWhere(cond)
			if berr != nil || oerr != nil || bn != on {
				t.Fatalf("step %d: filtered count diverged: bare=%d(%v) observed=%d(%v)", step, bn, berr, on, oerr)
			}
		}
	}

	var bareSnap, observedSnap bytes.Buffer
	if err := bare.Snapshot(&bareSnap); err != nil {
		t.Fatal(err)
	}
	if err := observed.Snapshot(&observedSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bareSnap.Bytes(), observedSnap.Bytes()) {
		t.Errorf("snapshots diverged: bare %d bytes, observed %d bytes",
			bareSnap.Len(), observedSnap.Len())
	}

	// Guard against a vacuous pass: the instrumented run must actually have
	// recorded its steps and queries.
	text := reg.DumpText()
	for _, want := range []string{
		`incshrink_core_phase_seconds_count{view="pinned",phase="shrink"} 120`,
		`incshrink_core_phase_seconds_count{view="pinned",phase="transform"} 120`,
		`incshrink_mpc_predicted_vs_measured`,
	} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("instrumented run recorded nothing for %q", want)
		}
	}
}
