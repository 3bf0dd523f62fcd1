package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"incshrink"
	"incshrink/internal/core"
	"incshrink/internal/obs"
	"incshrink/internal/workload"
)

// The three library workloads drive a bare incshrink.DB from one goroutine
// (1 client, closed loop) through the root package's API only.

// libRep is the state of one repetition of a library workload.
type libRep struct {
	ctx   *runCtx
	db    *incshrink.DB
	steps []incshrink.StepRows // the generated trace, one element per time step
	truth []int                // Trace.PrefixTruth
	next  int                  // next trace step to ingest
	ans   answers
	chk   checker

	advance, advanceSync, count, countWhere []time.Duration

	lane         *lane
	countPrimary bool // Count, not the ingest call, is the primary operation

	l1      float64 // sum of |answer - truth| over the query points
	queries int

	// Traced repetitions attach the engine instruments and give every
	// operation a root span.
	reg  *obs.Registry
	s0   scrape // at the start of the measured phase
	ops  uint64
	root time.Duration
}

// stepRows converts a generated trace to the public upload shape.
func stepRows(tr *workload.Trace) []incshrink.StepRows {
	out := make([]incshrink.StepRows, len(tr.Steps))
	for i, st := range tr.Steps {
		for _, r := range st.Left {
			out[i].Left = append(out[i].Left, incshrink.Row(r.Row))
		}
		for _, r := range st.Right {
			out[i].Right = append(out[i].Right, incshrink.Row(r.Row))
		}
	}
	return out
}

// openLib generates the trace and opens the database: the part of set-up
// the library workloads share.
func openLib(ctx *runCtx, res *repResult, cfg workload.Config, def incshrink.ViewDef, opts incshrink.Options) (*libRep, error) {
	t0 := time.Now()
	tr, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	res.layer["workload.generate_s"] = time.Since(t0).Seconds()
	db, err := incshrink.Open(def, opts)
	if err != nil {
		return nil, err
	}
	r := &libRep{ctx: ctx, db: db, steps: stepRows(tr), truth: tr.PrefixTruth(), ans: newAnswers()}
	if ctx.tr != nil {
		r.reg = obs.NewRegistry()
		db.Instrument(core.NewInstrumentSet(r.reg).ForView("bench"))
	}
	return r, nil
}

// reserve sizes the latency samples in set-up so the measured phase does
// not grow them.
func (r *libRep) reserve(advances, counts, countWheres, segments int) {
	r.lane = newLane(segments)
	r.advance = make([]time.Duration, 0, advances)
	r.advanceSync = make([]time.Duration, 0, advances)
	r.count = make([]time.Duration, 0, counts)
	r.countWhere = make([]time.Duration, 0, countWheres)
}

// begin ends set-up (started at t0) and opens the measured phase.
func (r *libRep) begin(res *repResult, t0 time.Time) *timedPhase {
	res.setup = time.Since(t0)
	if r.reg != nil {
		r.s0 = scrapeRegistry(r.reg)
	}
	ph := beginTimed()
	r.lane.start()
	return ph
}

// traceChildrenEvery is how often a traced operation also gets its engine
// phases as child spans. Reading the instruments means scraping the metrics
// exposition twice, which costs more than the operation itself, so only
// every 32nd operation pays for it; core.unattributed_frac does not depend
// on the sampling (it uses the scrapes at the phase's two ends).
const traceChildrenEvery = 32

// timed runs one operation under the clock. Traced repetitions record its
// root span and, on sampled operations, the engine phases the instruments
// observed during it as children. The instruments export durations, not
// start times, so children are laid end to end from the root's start.
func (r *libRep) timed(name string, call func()) time.Duration {
	tr := r.ctx.tr
	deep := tr != nil && r.ops%traceChildrenEvery == 0
	var before phases
	if deep {
		before = scrapeRegistry(r.reg).phases()
	}
	t0 := time.Now()
	call()
	d := time.Since(t0)
	if tr == nil {
		return d
	}
	r.ops++
	r.root += d
	start := tr.at(t0)
	root := tr.add(r.ops, 0, name, "incshrink", start, d.Nanoseconds())
	if !deep {
		return d
	}
	ph := scrapeRegistry(r.reg).phases().sub(before)
	at := start
	child := func(parent uint64, phase string, sec float64) uint64 {
		if sec <= 0 {
			return 0
		}
		id := tr.add(r.ops, parent, phase, "core", at, int64(sec*1e9))
		at += int64(sec * 1e9)
		return id
	}
	if id := child(root, "transform", ph.transform.sec); id != 0 {
		tr.add(r.ops, id, "pad", "core", start, int64(ph.pad.sec*1e9))
	}
	child(root, "shrink", ph.shrink.sec)
	child(root, "query", ph.query.sec)
	return d
}

// ingest times one ingest call and files it by whether a view update fired
// during it (Stats is read outside the timed span).
func (r *libRep) ingest(name string, steps int, call func() error) {
	before := r.db.Stats().Updates
	var err error
	d := r.timed(name, func() { err = call() })
	if err != nil {
		r.chk.fail("%s at step %d: %v", name, r.next, err)
		return
	}
	r.next += steps
	if !r.countPrimary {
		r.lane.op(d)
	}
	if r.db.Stats().Updates != before {
		r.advanceSync = append(r.advanceSync, d)
	} else {
		r.advance = append(r.advance, d)
	}
}

func (r *libRep) doAdvance() {
	s := r.steps[r.next]
	r.ingest("Advance", 1, func() error { return r.db.Advance(s.Left, s.Right) })
}

func (r *libRep) doAdvanceBatch(k int) {
	batch := r.steps[r.next : r.next+k]
	r.ingest("AdvanceBatch", k, func() error { return r.db.AdvanceBatch(batch) })
}

// answer scores one query answer at the current step: it enters the digest
// and the L1 error, and must not exceed the ground truth (the view only
// ever defers or truncates true pairs).
func (r *libRep) answer(name string, n int) {
	truth := 0
	if r.next > 0 {
		truth = r.truth[r.next-1]
	}
	r.ans.add(uint64(n))
	r.queries++
	r.l1 += float64(truth - n)
	r.chk.check(n >= 0 && n <= truth, "%s at step %d: answer %d exceeds truth %d", name, r.next, n, truth)
}

func (r *libRep) doCount() {
	var n int
	d := r.timed("Count", func() { n, _ = r.db.Count() })
	r.count = append(r.count, d)
	if r.countPrimary {
		r.lane.op(d)
	}
	r.answer("Count", n)
}

// q1 is the paper's Q1 filter over the view.
var q1 = incshrink.Where{Col: "right.time", Minus: "left.time", Cmp: incshrink.Le, Val: 10}

func (r *libRep) doCountWhere() {
	var n int
	var err error
	d := r.timed("CountWhere", func() { n, _, err = r.db.CountWhere(q1) })
	if err != nil {
		r.chk.fail("CountWhere at step %d: %v", r.next, err)
		return
	}
	r.countWhere = append(r.countWhere, d)
	r.answer("CountWhere", n)
}

// finish closes the measured phase (timedSteps steps and ops operations,
// rates being the work of one segment), fills the incshrink, core and mpc
// layers, runs the end-of-run snapshot round trip, and closes the result.
func (r *libRep) finish(res *repResult, ph *timedPhase, timedSteps, ops int, rates func([]float64) (float64, float64)) {
	ph.end(res, ops)
	res.lanes, res.rates = []*lane{r.lane}, rates
	out := res.layer
	latencyLayer(out, r.advance, r.advanceSync, r.count, r.countWhere)
	st := r.db.Stats()
	if r.queries > 0 {
		out["incshrink.l1_error_mean"] = r.l1 / float64(r.queries)
		out["incshrink.sim_qet_ms"] = st.QuerySeconds / float64(r.queries) * 1e3
	}
	out["incshrink.sim_mpc_s_per_step"] = (st.TransformSeconds + st.ShrinkSeconds) / float64(st.Step)
	if pairs := r.truth[r.next-1]; pairs > 0 {
		out["incshrink.view_bytes_per_pair"] = float64(st.ViewBytes) / float64(pairs)
	}
	out["core.view_slots"] = float64(st.ViewSlots)
	out["core.cache_slots"] = float64(st.CacheSlots)
	if st.ViewSlots > 0 {
		out["core.dummy_frac"] = 1 - float64(st.ViewEntries)/float64(st.ViewSlots)
	}
	if r.reg != nil {
		coreLayer(out, r.s0, scrapeRegistry(r.reg), timedSteps, r.root.Seconds())
	}

	// Snapshot round trip: a restored database must answer as the original.
	var buf bytes.Buffer
	t0 := time.Now()
	err := r.db.Snapshot(&buf)
	out["incshrink.snapshot_ms"] = time.Since(t0).Seconds() * 1e3
	out["incshrink.snapshot_bytes"] = float64(buf.Len())
	r.chk.check(err == nil, "Snapshot: %v", err)
	if err == nil {
		t0 = time.Now()
		back, err := incshrink.Restore(&buf)
		out["incshrink.restore_ms"] = time.Since(t0).Seconds() * 1e3
		r.chk.check(err == nil, "Restore: %v", err)
		if err == nil {
			want, _ := r.db.Count()
			got, _ := back.Count()
			r.chk.check(got == want, "restored database counts %d, original %d", got, want)
		}
	}
	res.finish(&r.chk, ops, r.ans.hex())
}

// tpcdsOptions is the paper's TPC-ds deployment: sDPTimer every 10 steps over
// the trace's block sizes.
func tpcdsOptions(seed int64, merge bool) incshrink.Options {
	return incshrink.Options{MaxLeft: 96, MaxRight: 8, T: 10, Seed: seed, MergeWindows: merge}
}

// runTPCDSStep is the paper's main loop: the TPC-ds-like trace fed row by
// row through Advance, the standing Count every fifth step.
func runTPCDSStep(ctx *runCtx) (*repResult, error) {
	res := newRepResult()
	t0 := time.Now()
	n := ctx.segmented(tpcdsStepSteps, tpcdsSegment)
	r, err := openLib(ctx, res, workload.TPCDS(n, ctx.seed), incshrink.ViewDef{Within: 10}, tpcdsOptions(ctx.seed, false))
	if err != nil {
		return nil, err
	}
	r.reserve(n, n/tpcdsCountEvery, 0, n/tpcdsSegment)

	ph := r.begin(res, t0)
	for t := 0; t < n; t++ {
		r.doAdvance()
		if (t+1)%tpcdsCountEvery == 0 {
			r.doCount()
		}
		if (t+1)%tpcdsSegment == 0 {
			r.lane.cut()
		}
	}
	r.finish(res, ph, n, n+n/tpcdsCountEvery, singleLane(tpcdsSegment, tpcdsSegment+tpcdsSegment/tpcdsCountEvery))
	return res, nil
}

// runTPCDSBatch feeds the same kind of trace through AdvanceBatch calls of 8
// with window merging on, Count after every batch.
func runTPCDSBatch(ctx *runCtx) (*repResult, error) {
	res := newRepResult()
	t0 := time.Now()
	calls := ctx.segmented(tpcdsBatchCalls, tpcdsBatchSegment)
	n := calls * tpcdsBatchLen
	r, err := openLib(ctx, res, workload.TPCDS(n, ctx.seed), incshrink.ViewDef{Within: 10}, tpcdsOptions(ctx.seed, true))
	if err != nil {
		return nil, err
	}
	r.reserve(calls, calls, 0, calls/tpcdsBatchSegment)

	ph := r.begin(res, t0)
	for i := 0; i < calls; i++ {
		r.doAdvanceBatch(tpcdsBatchLen)
		r.doCount()
		if (i+1)%tpcdsBatchSegment == 0 {
			r.lane.cut()
		}
	}
	r.finish(res, ph, n, 2*calls, singleLane(tpcdsBatchSegment*tpcdsBatchLen, 2*tpcdsBatchSegment))
	return res, nil
}

// cpdbOp is one scheduled operation of the cpdb_query mix.
type cpdbOp uint8

const (
	opCount cpdbOp = iota
	opCountWhere
	opAdvance
)

// cpdbSchedule lays out n operations (a whole number of blocks) in blocks
// of 9 Count, 9 CountWhere and 2 Advance, each block shuffled from the seed:
// the 45/45/10 mix holds exactly in every segment, whatever the seed.
func cpdbSchedule(seed int64, n int) (ops []cpdbOp, advances int) {
	rng := rand.New(rand.NewSource(seed ^ 0x63706462)) // "cpdb"
	block := make([]cpdbOp, 0, cpdbBlock)
	for i := 0; i < cpdbBlock; i++ {
		switch {
		case i < 9:
			block = append(block, opCount)
		case i < 18:
			block = append(block, opCountWhere)
		default:
			block = append(block, opAdvance)
		}
	}
	for len(ops) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		ops = append(ops, block...)
	}
	return ops, n / cpdbBlock * 2
}

// runCPDBQuery is the query-heavy workload: a CPDB-like stream (public right
// relation, multiplicity up to 12, uploads every 5 steps, sDPANT) preloaded
// in set-up until the view is larger than L2, then scans with writes beside
// them.
func runCPDBQuery(ctx *runCtx) (*repResult, error) {
	res := newRepResult()
	t0 := time.Now()
	preload := ctx.scaled(cpdbPreloadSteps, 20)
	sched, advances := cpdbSchedule(ctx.seed, ctx.segmented(cpdbOps, cpdbSegment))
	r, err := openLib(ctx, res, workload.CPDB(preload+advances, ctx.seed),
		incshrink.ViewDef{Within: 10, Omega: 12, Budget: 24, RightPublic: true},
		incshrink.Options{Protocol: incshrink.SDPANT, Theta: 30, UploadEvery: 5, MaxLeft: 24, MaxRight: 56, Seed: ctx.seed})
	if err != nil {
		return nil, err
	}
	r.countPrimary = true
	for r.next < preload {
		s := r.steps[r.next]
		if err := r.db.Advance(s.Left, s.Right); err != nil {
			return nil, fmt.Errorf("preload step %d: %w", r.next, err)
		}
		r.next++
	}
	r.reserve(advances, len(sched), len(sched), len(sched)/cpdbSegment)

	ph := r.begin(res, t0)
	for i, op := range sched {
		switch op {
		case opCount:
			r.doCount()
		case opCountWhere:
			r.doCountWhere()
		default:
			r.doAdvance()
		}
		if (i+1)%cpdbSegment == 0 {
			r.lane.cut()
		}
	}
	r.finish(res, ph, advances, len(sched), singleLane(cpdbSegment/cpdbBlock*2, cpdbSegment))
	return res, nil
}
