package incshrink_test

import (
	"testing"

	"incshrink"
	"incshrink/internal/oblivious"
	"incshrink/internal/workload"
)

// TestWarmANTSyncBuildsNoNetwork: on the CPDB/sDPANT deployment (the one
// cmd/benchmark's cpdb_query preloads) the cache a synchronisation sorts has
// whatever length the DP-noised fetches left behind, so a warm engine keeps
// sorting lengths the process has never sorted. None of them may build a
// comparator network: after the warm-up, table builds (misses) and retained
// pairs stay put while every sort is a replay. The premise — at least 100
// distinct sorted lengths in the measured window — is asserted from the
// cache lengths, so the test cannot pass vacuously.
func TestWarmANTSyncBuildsNoNetwork(t *testing.T) {
	const measured = 1500
	db, steps := warmANT(t, measured)
	h0, m0, _, p0 := oblivious.CacheStats()
	// A sync orders the cache the step found, plus — on a step that ran a
	// Transform — that step's padded output, a public constant: it merges
	// the two runs, through a window of the table for their length. So the
	// lengths found, counted per kind of step, are distinct ordered lengths.
	found := map[bool]map[int]bool{false: {}, true: {}}
	for _, s := range steps {
		before := db.Stats()
		if err := db.Advance(s.Left, s.Right); err != nil {
			t.Fatal(err)
		}
		if after := db.Stats(); after.Updates > before.Updates {
			found[after.TransformSeconds > before.TransformSeconds][before.CacheSlots] = true
		}
	}
	if distinct := max(len(found[false]), len(found[true])); distinct < 100 {
		t.Fatalf("only %d distinct sorted lengths in %d steps: the run no longer varies its sort length", distinct, measured)
	}
	h1, m1, _, p1 := oblivious.CacheStats()
	if m1 != m0 || p1 != p0 {
		t.Errorf("warm sDPANT run built networks: misses %d -> %d, retained pairs %d -> %d", m0, m1, p0, p1)
	}
	if h1 <= h0 {
		t.Errorf("no sort replayed a table: hits %d -> %d", h0, h1)
	}
}

// TestWarmTPCDSStepBuildsNoNetwork: the same on cmd/benchmark's tpcds_step
// deployment, whose Transform sorts its 104 new padded rows and merges them
// into the 936-row carry. The merge replays windows of the last phase of the
// 2,048-wire table — the one a sort of that many rows uses — so a warm engine
// builds nothing and retains nothing new, while every step replays tables at
// least twice (the sort of the block and the merge).
func TestWarmTPCDSStepBuildsNoNetwork(t *testing.T) {
	const warm, measured = 100, 300
	tr, err := workload.Generate(workload.TPCDS(warm+measured, 1))
	if err != nil {
		t.Fatal(err)
	}
	db, err := incshrink.Open(incshrink.ViewDef{Within: 10}, incshrink.Options{MaxLeft: 96, MaxRight: 8, T: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var h0, m0, p0 int64
	for i, st := range tr.Steps {
		if i == warm {
			h0, m0, _, p0 = oblivious.CacheStats()
		}
		var left, right []incshrink.Row
		for _, r := range st.Left {
			left = append(left, incshrink.Row(r.Row))
		}
		for _, r := range st.Right {
			right = append(right, incshrink.Row(r.Row))
		}
		if err := db.Advance(left, right); err != nil {
			t.Fatal(err)
		}
	}
	h1, m1, _, p1 := oblivious.CacheStats()
	if m1 != m0 || p1 != p0 {
		t.Errorf("warm tpcds_step run built networks: misses %d -> %d, retained pairs %d -> %d", m0, m1, p0, p1)
	}
	if h1-h0 < 2*measured {
		t.Errorf("%d table replays in %d steps, want the block sort and the merge of every step", h1-h0, measured)
	}
}
