package core

import (
	"fmt"
	"slices"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/table"
	"incshrink/internal/workload"
)

// refStepBatch is StepBatch with the Transform replaced by refTransform: the
// reference engine the merge join is checked against. Everything but the
// join — admission, segment boundaries, ledgers, delta compaction, counter,
// cache, Shrink, flush — is the engine's own code or a copy of it.
func refStepBatch(f *Framework, steps []workload.Step) {
	f.blocks = f.blocks[:0]
	for i, st := range steps {
		f.now = st.T
		f.rt.SetTime(st.T)
		f.arrive(right, st.Right)
		if f.uploadDue(st.T) {
			f.arrive(left, st.Left)
			f.blocks = append(f.blocks, f.admit(st.T))
		}
		if len(f.blocks) > 0 && (!f.cfg.MergeWindows || f.observesAt(st.T) || f.flushDue(st.T) || i == len(steps)-1) {
			refTransform(f, f.blocks)
			f.blocks = f.blocks[:0]
		}
		f.shrink.Tick(f, st.T)
		if f.flushDue(st.T) {
			fetched := min(f.cfg.FlushSize, f.cache.Len())
			f.lostReal += f.cache.ReadAndPruneInto(f.view, fetched, 0, 0)
			f.rt.ObserveFlush(fetched, "flush")
		}
	}
}

// refTransform rebuilds the two join inputs from the carry's records — the
// segment's rows first, then the carried ones — runs the from-scratch join
// (sort everything, then scan) on them, and keeps the rows that stay in
// whatever order they had: it sorts again next time.
func refTransform(f *Framework, blocks []uploadBlock) {
	f.transforms++
	var fresh [2]int
	for _, b := range blocks {
		fresh[left] += b.n[left]
		fresh[right] += b.n[right]
	}
	m := f.carry.Len() - fresh[left] - fresh[right]
	for s := range f.str {
		f.from[s] = int64(f.str[s].retire(blocks, f.cfg.Omega, f.wl.Within))
	}
	var in [2][]oblivious.Record
	next := oblivious.NewBuffer(carryArity, 0)
	for _, span := range [][2]int{{m, f.carry.Len()}, {0, m}} {
		for i := span[0]; i < span[1]; i++ {
			r := slices.Clone(f.carry.Row(i))
			in[r[colTag]] = append(in[r[colTag]], oblivious.Record{Row: r[:workload.StreamArity]})
			if f.stays(r) {
				next.AppendRow(r)
			}
		}
	}
	f.carry = next
	joined := oblivious.NewBuffer(workload.JoinArity, 0)
	oblivious.TruncatedSortMergeJoinInto(joined, in[left], in[right], workload.ColKey, workload.ColKey,
		f.match, f.cfg.Omega, f.rt.Meter, mpc.OpTransform, fresh[left], fresh[right])

	delta := joined
	if cap := f.deltaCap(fresh[left], fresh[right]); cap > 0 {
		f.overflow.AppendAll(joined)
		delta = f.deltaBuf
		delta.Reset()
		f.spill.Reset()
		oblivious.TightCompactInto(f.overflow, cap, delta, f.spill, f.rt.Meter, mpc.OpTransform, tupleBits)
		f.overflow, f.spill = f.spill, f.overflow
	}
	newReal := delta.Real()
	total := uint32(recoverCounter(f) + newReal)
	for range blocks {
		f.rt.ShareToServers(counterKey, total)
	}
	f.created += newReal
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
			eng, err := build(cfg, c.wl)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := build(cfg, c.wl)
			tr := mustTrace(t, c.wl)
			want := eng.carry.Len()
			pairs := 0
			for lo := 0; lo < len(tr.Steps); lo += c.chunk {
				steps := tr.Steps[lo:min(lo+c.chunk, len(tr.Steps))]
				before := eng.created + eng.overflow.Real() // every real the join emits lands in one of the two
				eng.StepBatch(steps)
				refStepBatch(ref, steps)
				at := fmt.Sprintf("after step %d", steps[len(steps)-1].T)

				if !c.wl.RightPublic && eng.carry.Len() != want {
					t.Fatalf("%s: carry of %d rows, the public cap is %d", at, eng.carry.Len(), want)
				}
				if eng.carry.Len() != ref.carry.Len() || eng.carry.Len() != eng.str[left].rows()+eng.str[right].rows() {
					t.Fatalf("%s: carry of %d rows, reference %d, ledgers %d", at, eng.carry.Len(), ref.carry.Len(),
						eng.str[left].rows()+eng.str[right].rows())
				}
				for i := 1; i < eng.carry.Len(); i++ {
					if !carryOrdered(eng.carry.Row(i-1), eng.carry.Row(i)) {
						t.Fatalf("%s: carry row %d out of (key, tag) order", at, i)
					}
				}
				// The join's slots and reals are observed on the last delta
				// compaction's input, now the spill: the overflow carried into
				// that Transform, then everything its join emitted.
				type observed struct{ joinLen, joinReal, counter, cacheReal, viewReal, lost, created, count, countQ1 int }
				observe := func(f *Framework) observed {
					n, _ := f.Query()
					nq, _ := f.QueryWhere(q1)
					return observed{f.spill.Len(), f.spill.Real(), recoverCounter(f), f.cache.Real(), f.view.Real(),
						f.lostReal, f.created, n, nq}
				}
				if got, exp := observe(eng), observe(ref); got != exp {
					t.Fatalf("%s: merge join %+v, full-sort reference %+v", at, got, exp)
				}
				pairs += eng.created + eng.overflow.Real() - before
			}
			if pairs == 0 || eng.view.Real() == 0 {
				t.Fatal("the stream never exercised the join or the view")
			}
			if c.chunk > 1 {
				// The premise of the merged case: multi-block segments, and an
				// omega that binds — the same stream creates more pairs under a
				// bound (and budget) four times as large.
				cfg.Omega, cfg.Budget = 4*cfg.Omega, 4*cfg.Budget
				loose, _ := build(cfg, c.wl)
				loose.StepBatch(tr.Steps)
				if eng.created >= loose.created || eng.transforms > len(tr.Steps)/4 {
					t.Errorf("created %d pairs in %d transforms over %d steps, %d untruncated: the case must truncate over multi-block segments",
						eng.created, eng.transforms, len(tr.Steps), loose.created)
				}
			}
		})
	}
}

// TestOverflowCarriesLatePairs drives the delta cap's rare case: pairs the
// cap does not cover. The join appends its output behind the entries the
// overflow carries, so a late-shipped burst must drain through later
// Transforms one capped delta at a time, none lost. Three right records
// arrive at step 0; their three left partners ship late, at step 1, when
// the right block is a single pad, so the cap is omega * 1 = 1.
func TestOverflowCarriesLatePairs(t *testing.T) {
	wl := workload.TPCDS(8, 1)
	wl.MaxLeft, wl.MaxRight = 4, 1
	cfg := DefaultConfig(wl, 1)
	eng, err := NewTimerEngine(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(key, at int64) oblivious.Record {
		return oblivious.Record{Row: table.Row{key, at}}
	}
	steps := []workload.Step{
		{T: 0, Right: []oblivious.Record{rec(1, 0), rec(2, 0), rec(3, 0)}},
		{T: 1, Left: []oblivious.Record{rec(1, 0), rec(2, 0), rec(3, 0)}},
		{T: 2},
		{T: 3},
		{T: 4},
	}
	for i, want := range [][2]int{{0, 0}, {1, 2}, {2, 1}, {3, 0}, {3, 0}} {
		eng.Step(steps[i])
		if got := [2]int{eng.created, eng.overflow.Real()}; got != want {
			t.Fatalf("after step %d: %d pairs delivered and %d carried, want %d and %d", i, got[0], got[1], want[0], want[1])
		}
	}
}
