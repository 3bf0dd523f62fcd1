package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/table"
	"incshrink/internal/workload"
)

// reference is the engine the merge join is checked against: a Framework
// whose Transform is refTransform, plus the reference's own carry — the rows
// that outlive each Transform, in join order, each with its stream and the
// step of its upload block. The Framework's union only stages each segment's
// new rows, at the tails of its sides.
type reference struct {
	*Framework
	carried []carriedRow
}

type carriedRow struct {
	row  table.Row
	s, t int
}

// newReference takes over f, moving the rows prefill put in its union — the
// pads of the periods before step 0 — to the reference's carry.
func newReference(f *Framework) *reference {
	r := &reference{Framework: f, carried: ledgerRows(f)}
	sortJoinOrder(r.carried)
	f.carry.Reset()
	return r
}

// ledgerRows copies out the rows of f's carry side by side, each stamped
// with the block the ledger places it in: a side holds its live blocks' rows
// block after block.
func ledgerRows(f *Framework) []carriedRow {
	var rows []carriedRow
	for s, side := range f.carry.Side {
		i := 0
		for _, b := range f.str[s].live {
			for range b.n {
				rows = append(rows, carriedRow{slices.Clone(side.Row(i)), s, b.t})
				i++
			}
		}
	}
	return rows
}

// sortJoinOrder sorts rows on (key, stream), stably.
func sortJoinOrder(rows []carriedRow) {
	slices.SortStableFunc(rows, func(a, b carriedRow) int {
		return cmp.Or(cmp.Compare(a.row[workload.ColKey], b.row[workload.ColKey]), cmp.Compare(a.s, b.s))
	})
}

// refStepBatch is StepBatch with the Transform replaced by refTransform: the
// reference engine the merge join is checked against. Everything but the
// join — admission, segment boundaries, ledgers, delta compaction, counter,
// cache, Shrink (and its flush) — is the engine's own code or a copy of it.
func refStepBatch(r *reference, steps []workload.Step) {
	f := r.Framework
	k := 0
	for i, st := range steps {
		f.rt.SetTime(st.T)
		if f.str[right].block == 0 {
			for _, rec := range st.Right {
				f.pending.AppendRow(rec.Row[:workload.StreamArity])
			}
		}
		if f.uploadDue(st.T) {
			f.admit(st.T, [2][]oblivious.Record{st.Left, st.Right})
			k++
		}
		if k > 0 && (!f.cfg.MergeWindows || f.observesAt(st.T) || i == len(steps)-1) {
			refTransform(r, k)
			k = 0
		}
		f.tick(st.T)
		f.now = st.T + 1
	}
}

// refTransform rebuilds the two join inputs from the union and the
// reference's carry — the segment's rows at the tails of the union's sides
// first, then the carried ones in join order — runs the from-scratch join
// (sort everything, then scan) on them, and keeps the rows whose block is
// still on its ledger, put back in join order by a plain sort.
func refTransform(r *reference, k int) {
	f := r.Framework
	f.transforms++
	var fresh [2]int
	var segment [2][]liveBlock
	live := map[[2]int64]bool{}
	for s := range f.str {
		segment[s] = slices.Clone(f.str[s].live[len(f.str[s].live)-k:])
		for _, b := range segment[s] {
			fresh[s] += b.n
		}
		f.str[s].retire(k, f.cfg.Omega, f.cfg.Shape.Within)
		for _, b := range f.str[s].live {
			live[[2]int64{int64(s), int64(b.t)}] = true
		}
	}
	var rows []carriedRow
	for s, side := range f.carry.Side {
		i := side.Len() - fresh[s]
		for _, b := range segment[s] {
			for range b.n {
				rows = append(rows, carriedRow{slices.Clone(side.Row(i)), s, b.t})
				i++
			}
		}
	}
	var in [2][]oblivious.Record
	var next []carriedRow
	for _, c := range append(rows, r.carried...) {
		in[c.s] = append(in[c.s], oblivious.Record{Row: c.row})
		if live[[2]int64{int64(c.s), int64(c.t)}] {
			next = append(next, c)
		}
	}
	sortJoinOrder(next)
	r.carried = next
	f.carry.Reset()
	f.joined.Reset()
	oblivious.TruncatedSortMergeJoinInto(f.joined, in[left], in[right], workload.ColKey, workload.ColKey,
		f.match, f.cfg.Omega, f.rt.Meter, mpc.OpTransform, fresh[left], fresh[right])

	delta := f.joined
	if cap := f.deltaCap(fresh[left], fresh[right]); cap > 0 {
		delta = f.deltaBuf
		delta.Reset()
		oblivious.TightCompactInto(f.joined, cap, delta, nil, nil, 0, 0)
		f.lostReal += f.joined.Real() - delta.Real()
	}
	total := uint32(recoverCounter(f) + delta.Real())
	for range k {
		f.rt.ShareToServers(counterKey, total)
	}
	f.created += f.joined.Real()
	f.cache.Append(delta)
	f.rt.ObserveBatch(delta.Len(), "transform")
}

// recoverCounter reconstructs the cardinality counter inside the protocol,
// in a round of its own; construction stores it, so it cannot be missing.
func recoverCounter(f *Framework) int {
	c, _ := f.rt.RecoverInside(counterKey)
	return int(int32(c))
}

// TestMergeJoinMatchesFullSortJoin is the engine-level check that "sort the
// new block, merge it into the carry" may stand in for "sort the whole
// input": two engines fed the same stream, one running transform and one the
// reference above, agree at every step on the Transform's real-pair count,
// the cardinality counter, the real entries in cache and view, the entries
// lost to the flush, and every Count and CountWhere(q1) — while the engine's
// carry stays in (key, tag) order at its public cap. The streams cover
// multiplicity 1, a public relation with omega at the multiplicity, and
// omega-truncated multi-block segments of a multiplicity-12 stream.
func TestMergeJoinMatchesFullSortJoin(t *testing.T) {
	cpdb := workload.CPDB(400, 5)
	multi := workload.TPCDS(300, 9)
	multi.MaxMultiplicity, multi.MaxRight, multi.PairRate = 12, 40, 12
	cases := []struct {
		name  string
		wl    workload.Config
		tune  func(*Config)
		ant   bool
		chunk int
	}{
		{name: "tpcds", wl: workload.TPCDS(300, 3), tune: func(*Config) {}, chunk: 1},
		{name: "cpdb", wl: cpdb, tune: func(c *Config) { c.Omega, c.Budget = 12, 24 }, ant: true, chunk: 1},
		{name: "multiplicity-12 merged", wl: multi, tune: func(c *Config) { c.MergeWindows, c.T = true, 8 }, chunk: 8},
	}
	// q1 is right.time - left.time <= 10 over view rows {left..., right...}.
	q1 := []oblivious.ScanCond{{Col: workload.StreamArity + workload.ColTime, Diff: workload.ColTime, Lo: 0, Hi: 10 ^ 1<<63}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig(c.wl, 11)
			c.tune(&cfg)
			build := NewTimerEngine
			if c.ant {
				build = NewANTEngine
			}
			eng, err := build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			refEng, _ := build(cfg)
			ref := newReference(refEng)
			tr := mustTrace(t, c.wl)
			want := eng.carry.Len()
			pairs := 0
			for lo := 0; lo < len(tr.Steps); lo += c.chunk {
				steps := tr.Steps[lo:min(lo+c.chunk, len(tr.Steps))]
				before := eng.created // every real the join emits, cached or dropped at the cap
				eng.StepBatch(steps)
				refStepBatch(ref, steps)
				at := fmt.Sprintf("after step %d", steps[len(steps)-1].T)

				if !c.wl.RightPublic && eng.carry.Len() != want {
					t.Fatalf("%s: carry of %d rows, the public cap is %d", at, eng.carry.Len(), want)
				}
				checkUnion(t, eng, at)
				byColumns := func(a, b carriedRow) int {
					return cmp.Or(slices.Compare(a.row, b.row), cmp.Compare(a.s, b.s), cmp.Compare(a.t, b.t))
				}
				got, exp := slices.SortedFunc(slices.Values(ledgerRows(eng)), byColumns), slices.SortedFunc(slices.Values(ref.carried), byColumns)
				if !slices.EqualFunc(got, exp, func(a, b carriedRow) bool { return byColumns(a, b) == 0 }) {
					t.Fatalf("%s: the carry holds %d rows, the reference's %d, or not the same ones", at, len(got), len(exp))
				}
				// The join's slots and reals are observed on the last
				// Transform's padded join output.
				type observed struct{ joinLen, joinReal, counter, cacheReal, viewReal, lost, created, count, countQ1 int }
				observe := func(f *Framework) observed {
					n, _ := f.Query()
					nq, _ := f.QueryWhere(q1)
					return observed{f.joined.Len(), f.joined.Real(), recoverCounter(f), f.cache.Real(), f.view.Real(),
						f.lostReal, f.created, n, nq}
				}
				if got, exp := observe(eng), observe(ref.Framework); got != exp {
					t.Fatalf("%s: merge join %+v, full-sort reference %+v", at, got, exp)
				}
				pairs += eng.created - before
			}
			if pairs == 0 || eng.view.Real() == 0 {
				t.Fatal("the stream never exercised the join or the view")
			}
			if c.chunk > 1 {
				// The premise of the merged case: multi-block segments, and an
				// omega that binds — the same stream creates more pairs under a
				// bound (and budget) four times as large.
				cfg.Omega, cfg.Budget = 4*cfg.Omega, 4*cfg.Budget
				loose, _ := build(cfg)
				loose.StepBatch(tr.Steps)
				if eng.created >= loose.created || eng.transforms > len(tr.Steps)/4 {
					t.Errorf("created %d pairs in %d transforms over %d steps, %d untruncated: the case must truncate over multi-block segments",
						eng.created, eng.transforms, len(tr.Steps), loose.created)
				}
			}
		})
	}
}

// TestDeltaCapDropsLatePairs drives the delta cap's rare case: pairs the
// cap does not cover. The cap is a truncation, like omega: the pairs past it
// are dropped, each counted as created and as lost, and nothing surfaces
// later. Three right records arrive at steps 0 to 2, one per block; their
// three left partners ship late, at step 3, when the right block is a single
// pad, so the join emits 3 pairs against a cap of omega * 1 = 1.
func TestDeltaCapDropsLatePairs(t *testing.T) {
	wl := workload.TPCDS(8, 1)
	wl.MaxLeft, wl.MaxRight = 4, 1
	cfg := DefaultConfig(wl, 1)
	eng, err := NewTimerEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(key, at int64) oblivious.Record {
		return oblivious.Record{Row: table.Row{key, at}}
	}
	steps := []workload.Step{
		{T: 0, Right: []oblivious.Record{rec(1, 0)}},
		{T: 1, Right: []oblivious.Record{rec(2, 1)}},
		{T: 2, Right: []oblivious.Record{rec(3, 2)}},
		{T: 3, Left: []oblivious.Record{rec(1, 0), rec(2, 0), rec(3, 0)}},
		{T: 4},
	}
	for i, want := range [][3]int{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}, {3, 2, 1}, {3, 2, 1}} {
		eng.Step(steps[i])
		m := eng.Metrics()
		if got := [3]int{m.Created, m.LostReal, m.ViewReal + m.CacheReal}; got != want {
			t.Fatalf("after step %d: %d pairs created, %d lost and %d kept, want %d, %d and %d", i, got[0], got[1], got[2], want[0], want[1], want[2])
		}
	}
}
