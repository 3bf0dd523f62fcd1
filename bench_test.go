// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (regenerating the same rows/series; see
// internal/experiments), plus the ablation benches called out in DESIGN.md
// section 5. Custom b.ReportMetric values surface the *shape* quantities —
// improvement factors, error levels, cache growth — alongside the wall-clock
// cost of the simulation itself.
package incshrink

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"incshrink/internal/core"
	"incshrink/internal/dp"
	"incshrink/internal/experiments"
	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/sim"
	"incshrink/internal/table"
	"incshrink/internal/workload"
)

// benchParams keeps each benchmark iteration laptop-cheap while preserving
// the paper's shapes; run cmd/incshrink-bench -steps 1825 for the full span.
var benchParams = experiments.Params{Steps: 120, Seed: 2022}

// BenchmarkTable2 regenerates the aggregated comparison statistics (Table 2)
// and reports the headline shape metrics for DP-Timer on TPC-ds. Caches are
// dropped every iteration so the full simulation cost is measured.
func BenchmarkTable2(b *testing.B) {
	var rows []experiments.Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		experiments.ResetCaches()
		rows, err = experiments.Table2(context.Background(), benchParams)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Candidate == "DP-Timer" && r.Dataset == "TPC-ds" {
			b.ReportMetric(r.ImpOverNM, "impQET/NM")
			b.ReportMetric(r.AvgL1, "avgL1")
		}
	}
}

func benchFigure(b *testing.B, f func(context.Context, experiments.Params) ([]experiments.Figure, error)) {
	b.Helper()
	var figs []experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		experiments.ResetCaches()
		figs, err = f(context.Background(), benchParams)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(figs)), "panels")
}

// BenchmarkFigure4 regenerates the end-to-end accuracy/efficiency scatter.
func BenchmarkFigure4(b *testing.B) { benchFigure(b, experiments.Figure4) }

// BenchmarkFigure5 regenerates the epsilon sweep (3-way trade-off).
func BenchmarkFigure5(b *testing.B) { benchFigure(b, experiments.Figure5) }

// BenchmarkFigure6 regenerates the Sparse/Standard/Burst comparison.
func BenchmarkFigure6(b *testing.B) { benchFigure(b, experiments.Figure6) }

// BenchmarkFigure7 regenerates the T/theta sweep at three privacy levels.
func BenchmarkFigure7(b *testing.B) { benchFigure(b, experiments.Figure7) }

// BenchmarkFigure8 regenerates the truncation-bound study on CPDB.
func BenchmarkFigure8(b *testing.B) { benchFigure(b, experiments.Figure8) }

// BenchmarkFigure9 regenerates the data-scaling study.
func BenchmarkFigure9(b *testing.B) { benchFigure(b, experiments.Figure9) }

// --- Ablations (DESIGN.md section 5) ---

// BenchmarkAblationNoiseJoint measures the joint fixed-point Laplace sampler
// of Algorithm 2 (two 32-bit words, inversion) and reports its empirical
// scale error against the analytic Laplace median, versus the float64
// baseline sampler below.
func BenchmarkAblationNoiseJoint(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	abs := make([]float64, 0, b.N)
	for i := 0; i < b.N; i++ {
		v := dp.LaplaceFromWords(1.0, rng.Uint32(), rng.Uint32())
		abs = append(abs, math.Abs(v))
	}
	if len(abs) > 100 {
		sort.Float64s(abs)
		med := abs[len(abs)/2]
		b.ReportMetric(math.Abs(med-math.Ln2)/math.Ln2, "medianErr")
	}
}

// BenchmarkAblationNoiseFloat is the ideal float64 inversion sampler: the
// comparison point showing the 32-bit fixed-point discretization costs
// nothing measurable in distribution quality.
func BenchmarkAblationNoiseFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	abs := make([]float64, 0, b.N)
	for i := 0; i < b.N; i++ {
		u := rng.Float64()
		v := math.Log(u)
		if rng.Intn(2) == 0 {
			v = -v
		}
		abs = append(abs, math.Abs(v))
	}
	if len(abs) > 100 {
		sort.Float64s(abs)
		med := abs[len(abs)/2]
		b.ReportMetric(math.Abs(med-math.Ln2)/math.Ln2, "medianErr")
	}
}

// BenchmarkAblationFlushPrune runs DP-Timer on TPC-ds with the incremental
// Theorem-4 prune and reports the cache slots left at the end, the simulated
// Shrink cost and the real tuples the prune recycled: the trade-off the prune
// design buys.
func BenchmarkAblationFlushPrune(b *testing.B) {
	wl := workload.TPCDS(benchParams.Steps, benchParams.Seed)
	tr, err := workload.Generate(wl)
	if err != nil {
		b.Fatal(err)
	}
	var m core.Metrics
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(wl, benchParams.Seed)
		cfg.T = 10
		e, err := core.NewTimerEngine(cfg, wl)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range tr.Steps {
			e.Step(st)
		}
		m = e.Metrics()
	}
	b.ReportMetric(float64(m.CacheLen), "cacheLen")
	b.ReportMetric(m.ShrinkSecs, "simShrinkSecs")
	b.ReportMetric(float64(m.LostReal), "lostReal")
}

// BenchmarkAblationTruncateSMJ measures the truncated sort-merge join of
// Example 5.1 and reports its simulated gate cost.
func BenchmarkAblationTruncateSMJ(b *testing.B) {
	t1, t2 := ablationTables(128)
	meter := mpc.NewMeter(mpc.DefaultCostModel())
	dst := oblivious.NewBuffer(4, 0)
	for i := 0; i < b.N; i++ {
		dst.Reset()
		oblivious.TruncatedSortMergeJoinInto(dst, t1, t2, 0, 0, nil, 4, meter, mpc.OpTransform)
	}
	b.ReportMetric(meter.Gates(mpc.OpTransform)/float64(b.N), "simGates")
}

func ablationTables(n int) (t1, t2 []oblivious.Record) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		t1 = append(t1, oblivious.Record{Row: table.Row{int64(rng.Intn(n / 4)), int64(i)}})
		t2 = append(t2, oblivious.Record{Row: table.Row{int64(rng.Intn(n / 4)), int64(i)}})
	}
	return t1, t2
}

// BenchmarkJoinSortVsMerge is the ablation behind "sort once, merge
// thereafter": one Transform's join over a carry of m rows already in join
// order and f new ones, as the from-scratch join (sort all m+f) and as the
// engine runs it (sort the f new keys, merge them into the carried keys,
// retire the lapsed keys in the join's scan and cut them from the union's
// sides), at the tpcds_step deployment (936, 104), its 8-block tpcds_batch
// segment (936, 832) and a small one (72, 8). The merge join runs a cycle of
// segments as the engine does — nine blocks carried, each segment's k
// blocks appended and the k oldest retired — so every call meets the same
// shape; a round of the pool's segments is first joined both ways. Reported per Transform: comparators executed — counted by a
// textbook walk of the network local to this file, which internal/oblivious
// pins equal to what its kernel runs — gates priced, and wall time as ns/op.
// The two joins must emit the same pairs, some segment of the round must emit
// one, and the default deployment must stay under 6,000 comparators.
func BenchmarkJoinSortVsMerge(b *testing.B) {
	for _, shape := range []struct{ block, k int }{{104, 1}, {104, 8}, {8, 1}} {
		m, f := 9*shape.block, shape.k*shape.block
		rng := rand.New(rand.NewSource(int64(m + f)))
		// A pool of upload blocks, rows {key, time, tag, block}, one in 13 on
		// the right stream. Keys are distinct within a stream, as in the
		// generated workloads, so which pairs are emitted does not hang on how
		// the network orders ties; the pool holds enough blocks that no key is
		// in the union twice.
		pool := make([][]table.Row, 9+2*shape.k)
		keys := [2][]int{rng.Perm(len(pool) * shape.block), rng.Perm(len(pool) * shape.block)}
		for j := range pool {
			for i := range shape.block {
				g := j*shape.block + i
				tag := g % 13 / 12
				pool[j] = append(pool[j], table.Row{int64(keys[tag][g]), rng.Int63n(10), int64(tag), int64(j)})
			}
		}
		sides := func(blocks ...[]table.Row) (n [2]int) {
			for _, blk := range blocks {
				for _, r := range blk {
					n[r[2]]++
				}
			}
			return n
		}
		within := func(l, r oblivious.Record) bool { return r.Row[1] >= l.Row[1] }

		// The union after a filling join of the first nine blocks; segment
		// appends the next k of the pool and joins them while the k oldest
		// lapse.
		u := oblivious.NewUnion(4, 0)
		carried := pool[:9:9]
		for _, blk := range carried {
			for _, r := range blk {
				u.Append(int(r[2]), r)
			}
		}
		oblivious.MergeJoinInto(oblivious.NewBuffer(4, 0), u, sides(carried...), [2]int{}, within, 1)
		next := 9
		segment := func(dst *oblivious.Buffer, meter *mpc.Meter) {
			var arriving [][]table.Row
			for range shape.k {
				arriving = append(arriving, pool[next])
				for _, r := range pool[next] {
					u.Append(int(r[2]), r)
				}
				next = (next + 1) % len(pool)
			}
			oblivious.MergeJoinInto(dst, u, sides(arriving...), sides(carried[:shape.k]...), within, 1)
			// Priced as the engine prices a Transform's join and the carry's
			// retirement: the operators themselves never charge.
			meter.ChargeSort(mpc.OpTransform, f, 64*3)
			meter.ChargeMerge(mpc.OpTransform, m, f, 64*3)
			meter.ChargeScan(mpc.OpTransform, m+f, 64*4)
			meter.ChargeScan(mpc.OpTransform, mpc.CompactMoves(m+f), 64*3)
			carried = append(carried[shape.k:], arriving...)
		}

		// The from-scratch join's inputs for the next segment: its records
		// first, then the carried ones.
		var t [2][]oblivious.Record
		var fresh [2]int
		inputs := func() {
			t, fresh = [2][]oblivious.Record{}, [2]int{}
			for j := range shape.k + 9 {
				blk := pool[(next+j)%len(pool)]
				if j >= shape.k {
					blk = carried[j-shape.k]
				}
				for _, r := range blk {
					t[r[2]] = append(t[r[2]], oblivious.Record{Row: r[:2]})
					if j < shape.k {
						fresh[r[2]]++
					}
				}
			}
		}
		join := func(variant int, dst *oblivious.Buffer, meter *mpc.Meter) {
			dst.Reset()
			if variant == 0 {
				oblivious.TruncatedSortMergeJoinInto(dst, t[0], t[1], 0, 0, within, 1, meter, mpc.OpTransform, fresh[0], fresh[1])
				return
			}
			segment(dst, meter)
		}
		pairsOf := func(dst *oblivious.Buffer) (out []string) {
			for i := 0; i < dst.Len(); i++ {
				if dst.IsReal(i) {
					out = append(out, fmt.Sprint(dst.Row(i)))
				}
			}
			sort.Strings(out)
			return out
		}
		// A round of the pool's segments, each joined both ways.
		emitted := 0
		for range len(pool) {
			inputs()
			var pairs [2][]string
			for variant := range pairs {
				dst := oblivious.NewBuffer(4, 0)
				join(variant, dst, mpc.NewMeter(mpc.DefaultCostModel()))
				pairs[variant] = pairsOf(dst)
			}
			if !reflect.DeepEqual(pairs[0], pairs[1]) {
				b.Fatalf("(%d, %d): full sort emits %d pairs, sort + merge %d, or not the same ones", m, f, len(pairs[0]), len(pairs[1]))
			}
			emitted += len(pairs[0])
		}
		if emitted == 0 {
			b.Fatalf("(%d, %d): no segment of the round emitted a pair", m, f)
		}
		if u.Len() != m {
			b.Fatalf("(%d, %d): the union holds %d rows after a segment, want %d", m, f, u.Len(), m)
		}
		P := 1
		for P < max(m, f) {
			P <<= 1
		}
		comparators := [2]int{sortComparators(0, m+f, 1), sortComparators(0, f, 1) + sortComparators(P-m, P+f, P)}
		if m+f == 1040 && comparators[1] > 6000 {
			b.Fatalf("the default deployment runs %d comparators per Transform, want at most 6,000", comparators[1])
		}
		for variant, name := range []string{"full-sort", "sort+merge"} {
			b.Run(fmt.Sprintf("%d+%d/%s", m, f, name), func(b *testing.B) {
				meter := mpc.NewMeter(mpc.DefaultCostModel())
				dst := oblivious.NewBuffer(4, 0)
				for i := 0; i < b.N; i++ {
					join(variant, dst, meter)
				}
				b.ReportMetric(float64(comparators[variant]), "comparators")
				b.ReportMetric(meter.Gates(mpc.OpTransform)/float64(b.N), "simGates")
			})
		}
	}
}

// sortComparators walks Batcher's odd-even merge sorting network on wires
// [0, hi) from phase p0 on, textbook form, and counts the comparators whose
// low wire is at least lo: a sort of n is (0, n, 1), a merge of sorted runs of
// m and f under the power of two P >= both is phase P alone on [P-m, P+f).
func sortComparators(lo, hi, p0 int) (count int) {
	p2 := 1
	for p2 < hi {
		p2 <<= 1
	}
	for p := p0; p < p2; p <<= 1 {
		for k := p; k >= 1; k >>= 1 {
			for j := k % p; j <= p2-1-k; j += 2 * k {
				for i := 0; i <= k-1; i++ {
					if a, c := i+j, i+j+k; a/(p*2) == c/(p*2) && a >= lo && c < hi {
						count++
					}
				}
			}
		}
	}
	return count
}

// BenchmarkAblationSortBatcher measures the oblivious Batcher network against
// BenchmarkAblationSortStdlib (non-oblivious) on the same input: the price of
// data-independence in real CPU terms.
func BenchmarkAblationSortBatcher(b *testing.B) {
	base := ablationSlots(1024)
	work := oblivious.NewBuffer(1, base.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.Reset()
		work.AppendAll(base)
		oblivious.MergeRealFirst(work, []oblivious.Run{{Len: work.Len()}}, work.Len())
	}
}

// BenchmarkAblationSortStdlib is the comparison point for the sort ablation:
// a stable real-first sort of the same slots' positions by the isView bit.
func BenchmarkAblationSortStdlib(b *testing.B) {
	base := ablationSlots(1024)
	perm := make([]int, base.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range perm {
			perm[j] = j
		}
		sort.SliceStable(perm, func(x, y int) bool { return base.IsReal(perm[x]) && !base.IsReal(perm[y]) })
	}
}

func ablationSlots(n int) *oblivious.Buffer {
	rng := rand.New(rand.NewSource(9))
	b := oblivious.NewBuffer(1, n)
	for i := 0; i < n; i++ {
		b.AppendSlot(table.Row{int64(i)}, rng.Intn(2) == 0, 0, 0)
	}
	return b
}

// BenchmarkEndToEndTimerTPCDS measures one full DP-Timer deployment over the
// bench horizon: the cost of the whole simulation pipeline.
func BenchmarkEndToEndTimerTPCDS(b *testing.B) {
	wl := workload.TPCDS(benchParams.Steps, benchParams.Seed)
	tr, err := workload.Generate(wl)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(wl, benchParams.Seed)
	cfg.T = 10
	b.ResetTimer()
	var r sim.Result
	for i := 0; i < b.N; i++ {
		r, err = sim.RunKind(sim.KindTimer, cfg, tr, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgL1, "avgL1")
	b.ReportMetric(r.AvgQET*1e3, "QETms")
}

// BenchmarkEndToEndANTCPDB is the CPDB/sDPANT counterpart.
func BenchmarkEndToEndANTCPDB(b *testing.B) {
	wl := workload.CPDB(benchParams.Steps, benchParams.Seed)
	tr, err := workload.Generate(wl)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(wl, benchParams.Seed)
	cfg.T = 3
	b.ResetTimer()
	var r sim.Result
	for i := 0; i < b.N; i++ {
		r, err = sim.RunKind(sim.KindANT, cfg, tr, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgL1, "avgL1")
	b.ReportMetric(r.AvgQET*1e3, "QETms")
}
