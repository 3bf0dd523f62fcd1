// Package core implements IncShrink itself: the Transform protocol
// (Algorithm 1) with truncated view transformation and contribution
// budgets, the two Shrink protocols sDPTimer (Algorithm 2) and sDPANT
// (Algorithm 3) with joint DP noise and cache flushing, the materialized
// view lifecycle, view-based query answering, and the three comparison
// baselines of Section 7 (NM, EP, OTM).
package core

import (
	"fmt"
	"math"

	"incshrink/internal/dp"
	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/securearray"
	"incshrink/internal/workload"
)

// Config carries the IncShrink deployment parameters of Section 7: only what
// a deployment chooses. New derives the rest — the prune and spill bounds,
// the cost model — and the baselines' constructors set their own.
type Config struct {
	// Epsilon is the per-update-stream privacy budget (default 1.5).
	Epsilon float64
	// Omega is the truncation bound of trans_truncate (Eq. 3).
	Omega int
	// Budget is the total contribution budget b per outsourced record.
	Budget int
	// T is the sDPTimer update interval in time steps.
	T int
	// Theta is the sDPANT synchronization threshold.
	Theta float64
	// MergeWindows selects segment boundaries in StepBatch — where the queued
	// upload blocks get their Transform — and nothing else. Off (the default),
	// every step ends a segment: one Transform per upload block, and results
	// are byte-identical however the steps are cut into calls. On, a segment
	// runs to the next Shrink observation point (its cache flushes included)
	// or the end of the call, and
	// its k blocks share ONE Transform — sorted together and merged into the
	// carry once, instead of k sorts, merges and compactions. That preserves
	// count trajectories on single-contribution streams and keeps the meter
	// honest (charges follow the sizes that ran), but a k > 1 segment charges
	// fewer gates, emits one batch event instead of k, and applies the omega
	// truncation per segment rather than per block. See DESIGN.md §12.
	MergeWindows bool
	// Seed drives all protocol randomness.
	Seed int64
}

// DefaultConfig returns the paper's default setting for a workload: eps=1.5,
// theta=30, T = floor(30 / mean entries per step), and the dataset-specific
// omega and b of Section 7 (omega=1,b=10 for multiplicity-1 workloads;
// omega=10,b=20 otherwise). The paper's flush parameters f=2000 and s=15 are
// the Shrink protocols' constants (FlushEvery, FlushSize).
func DefaultConfig(wl workload.Config, seed int64) Config {
	cfg := Config{
		Epsilon: 1.5,
		Theta:   30,
		Seed:    seed,
	}
	if wl.MaxMultiplicity <= 1 {
		cfg.Omega, cfg.Budget = 1, 10
	} else {
		cfg.Omega, cfg.Budget = 10, 20
	}
	if wl.PairRate > 0 {
		cfg.T = int(math.Floor(cfg.Theta / wl.PairRate))
	}
	if cfg.T < 1 {
		cfg.T = 1
	}
	return cfg
}

// spillBound sizes the per-update deferred-data spill: the slots each view
// update moves from the head of the sorted cache beyond the DP-sized fetch.
// Real tuples sort first, so the spill drains deferred data at a rate
// *independent of epsilon*: the deferred-data level — and with it the
// privacy-accuracy trade-off of Figure 5 — still scales with the noise while
// no longer growing with the horizon, at the cost of at most that many dummy
// view slots per update. With a data rate it is about a quarter of one
// update's expected new entries, and Section 7 sizes that volume as Theta
// (T = Theta / rate), so the spill follows Theta, not T. An open-ended
// deployment has no rate and spills max(omega, 2).
func spillBound(cfg Config, wl workload.Config) int {
	if wl.PairRate > 0 {
		return int(math.Ceil(cfg.Theta/4)) + 1
	}
	return max(cfg.Omega, 2)
}

// pruneBound computes the public cache length the incremental prune keeps:
// the Theorem-4 deferred-data bound for the configured epsilon/budget plus
// two padded batches of headroom.
func pruneBound(cfg Config, wl workload.Config) int {
	// Deferred-data bound (Theorem 4) over a short horizon of 8 updates at
	// beta 0.05, plus two padded batches of headroom: beyond this length the
	// sorted cache tail is dummy with high probability. An unlimited Budget
	// (0) bounds nothing, so it adds no deferred-data headroom.
	alpha, err := dp.DeferredDataBound(float64(cfg.Budget), cfg.Epsilon, 8, 0.05)
	if err != nil {
		alpha = 0
	}
	batch := cfg.Omega * (wl.MaxLeft + wl.MaxRight)
	if wl.RightDrivesPairs {
		batch = cfg.Omega * wl.MaxRight
	}
	return int(alpha) + batch
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case !(c.Epsilon > 0) || math.IsInf(c.Epsilon, 0):
		return fmt.Errorf("core: Epsilon must be positive and finite, got %v", c.Epsilon)
	case !(c.Theta >= 0) || math.IsInf(c.Theta, 0):
		return fmt.Errorf("core: Theta must be non-negative and finite, got %v", c.Theta)
	case c.Omega < 1:
		return fmt.Errorf("core: Omega must be at least 1, got %d", c.Omega)
	case c.Budget != 0 && c.Budget < c.Omega:
		return fmt.Errorf("core: Budget %d below Omega %d would retire records before first use", c.Budget, c.Omega)
	}
	return nil
}

// Engine is the interface the simulation driver runs: one call per time
// step with the owners' uploads, plus a standing count query over the view
// definition.
type Engine interface {
	// Step ingests one time step of the workload.
	Step(st workload.Step)
	// Query answers the standing view-definition count query, returning the
	// answer and the simulated query execution time in seconds.
	Query() (result int, qetSeconds float64)
	// Metrics exposes the engine's accumulated measurements.
	Metrics() Metrics
	// Name identifies the engine for reports (DP-Timer, DP-ANT, EP, ...).
	Name() string
}

// Metrics aggregates an engine's instrumentation.
type Metrics struct {
	ViewLen       int
	ViewReal      int
	ViewBytes     int64
	CacheLen      int
	CacheReal     int
	Updates       int
	Transforms    int
	LostReal      int
	Created       int
	TransformSecs float64 // cumulative simulated seconds
	ShrinkSecs    float64
	QuerySecs     float64
	Queries       int
	TotalMPCSecs  float64
}

// AvgTransformSecs returns the mean Transform invocation time.
func (m Metrics) AvgTransformSecs() float64 { return safeDiv(m.TransformSecs, float64(m.Transforms)) }

// AvgShrinkSecs returns the mean Shrink execution time per view update.
func (m Metrics) AvgShrinkSecs() float64 { return safeDiv(m.ShrinkSecs, float64(m.Updates)) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Framework is the IncShrink engine: Transform + a Shrink protocol over the
// two-server MPC runtime.
type Framework struct {
	cfg Config
	wl  workload.Config
	rt  *mpc.Runtime

	cache *securearray.Cache
	view  *securearray.View

	// carry is the Transform's standing input — both streams' live records
	// and block pads, each side in arrival order, with their sort keys in
	// join order — and str the two public ledgers of the upload blocks in it
	// (carry.go). pending holds arrivals not yet admitted to a block: the
	// right stream's accumulate between uploads, the left side is only ever
	// non-empty inside a step.
	carry   *oblivious.Union
	str     [2]stream
	pending [2]*oblivious.Buffer

	shrink   Shrinker
	replay   *releases // nil but in the Theorem-7/8 tests; see releases
	prune    int       // the public cache length each view update keeps (pruneBound)
	spillLen int       // the public slots each view update spills (spillBound)
	rawDelta bool      // cache the raw padded join output, uncompacted (EP)
	match    oblivious.MatchFunc
	overflow *oblivious.Buffer // real entries beyond the delta cap, carried forward; the join appends behind them
	spill    *oblivious.Buffer // the next overflow, swapped in by each compaction
	dummyID  int64             // ascending generator for padding-record keys

	// deltaBuf is per-transform scratch, framework-owned so the steady-state
	// Advance path allocates (almost) nothing: the compacted delta (the raw
	// join output itself under rawDelta). The padded join output has no
	// buffer of its own: it lands on the overflow, the delta compaction's
	// input.
	deltaBuf *oblivious.Buffer

	// blocks are the upload blocks admitted since the last segment end; the
	// last step of a StepBatch call ends a segment, so they are not state.
	blocks []uploadBlock

	created    int
	lostReal   int
	transforms int
	queries    int
	querySecs  float64
	now        int // the step that runs next

	// ins observes the engine (phase timings, window/budget gauges,
	// predicted-vs-measured cost). nil means uninstrumented; every hook
	// no-ops. See observe.go.
	ins *Instruments
}

// maxJoinRows caps the padded join output of one Transform, omega slots for
// each row of the carry and the new blocks: omega·(keep+1)·(MaxLeft+MaxRight).
// It bounds the carry (keep blocks) and a step's delta (omega per new row)
// too, so a deployment whose public sizes alone would exhaust memory is
// refused before anything is allocated. The largest deployment the tests,
// examples, experiments and benchmarks build pads to 10,880 rows; at the cap a
// step takes ≈ 20 ms and 8 MB (2^20 rows took ≈ 1 s and 266 MB).
const maxJoinRows = 1 << 15

// New builds an IncShrink engine for a workload with the given Shrink
// protocol.
func New(cfg Config, wl workload.Config, shrink Shrinker) (*Framework, error) {
	return newOn(mpc.NewRuntime(mpc.DefaultCostModel(), cfg.Seed), cfg, wl, shrink)
}

// newOn is New over a runtime the caller built from the default cost model
// and cfg's seed. Construction already shares the counter (and sDPANT its
// first threshold), so the leakage tests, which must see a party's transcript
// from its first event, attach their recorders to rt before handing it over.
func newOn(rt *mpc.Runtime, cfg Config, wl workload.Config, shrink Shrinker) (*Framework, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	if shrink == nil {
		return nil, fmt.Errorf("core: nil Shrink protocol")
	}
	// Public input sizes: every block is padded to the block size and the
	// carry holds the blocks of the invocations a record survives after its
	// first, so the Transform input — and therefore its cost and its padded
	// output — is data-independent. They are allocated in full whatever the
	// data, the carry before New returns, so they are bounded first.
	inv := invocationsPerRecord(cfg, wl)
	width := wl.MaxLeft + wl.MaxRight
	if wl.MaxLeft > maxJoinRows || wl.MaxRight > maxJoinRows ||
		inv > maxJoinRows/width || cfg.Omega > maxJoinRows/(inv*width) {
		return nil, fmt.Errorf("core: a padded join output of omega %d × %d blocks of %d+%d rows exceeds %d rows",
			cfg.Omega, inv, wl.MaxLeft, wl.MaxRight, maxJoinRows)
	}
	f := &Framework{
		cfg:      cfg,
		wl:       wl,
		rt:       rt,
		cache:    securearray.New(workload.JoinArity, 0, nil),
		view:     securearray.NewView(workload.JoinArity),
		shrink:   shrink,
		prune:    pruneBound(cfg, wl),
		spillLen: spillBound(cfg, wl),
		match:    wl.Match(),
		overflow: oblivious.NewBuffer(workload.JoinArity, 0),
		spill:    oblivious.NewBuffer(workload.JoinArity, 0),
		carry:    oblivious.NewUnion(workload.StreamArity, workload.ColKey),
		pending:  [2]*oblivious.Buffer{oblivious.NewBuffer(workload.StreamArity, 0), oblivious.NewBuffer(workload.StreamArity, 0)},
		deltaBuf: oblivious.NewBuffer(workload.JoinArity, 0),
		dummyID:  math.MinInt64,
	}
	// A public relation needs neither padding nor a budget (its content is
	// not secret).
	keep := inv - 1
	f.str[left] = stream{total: cfg.Budget, block: wl.MaxLeft, keep: keep}
	f.str[right] = stream{keep: -1}
	if !wl.RightPublic {
		f.str[right] = stream{total: cfg.Budget, block: wl.MaxRight, keep: keep}
	}
	f.prefill()
	// Alg. 1 line 1-2: initialize the shared cardinality counter to zero.
	rt.ShareToServers(counterKey, 0)
	shrink.Init(f)
	return f, nil
}

// invocationsPerRecord is the public number of Transform invocations any
// record participates in: limited by its contribution budget (b/omega uses)
// and by the temporal join window (a record older than Within steps can no
// longer form new pairs).
func invocationsPerRecord(cfg Config, wl workload.Config) int {
	byWindow := int(min(wl.Within/int64(wl.UploadEvery), math.MaxInt-1)) + 1
	if cfg.Budget <= 0 {
		return byWindow
	}
	byBudget := cfg.Budget / cfg.Omega
	if byBudget < 1 {
		byBudget = 1
	}
	if byBudget < byWindow {
		return byBudget
	}
	return byWindow
}

// deltaCap is the public bound on new view entries per Transform invocation:
// every new pair involves at least one newly uploaded record, and each
// record contributes at most omega entries per invocation, so
// omega * (new left + new right) bounds the batch — or omega * new right
// alone when the workload declares that pairs are right-driven (the
// overflow carry catches the rare exceptions). A zero cap disables tight
// compaction (the EP baseline caches the raw padded output).
func (f *Framework) deltaCap(nLeft, nRight int) int {
	if f.rawDelta {
		return 0
	}
	if f.wl.RightDrivesPairs {
		return f.cfg.Omega * nRight
	}
	return f.cfg.Omega * (nLeft + nRight)
}

const counterKey = "c"

// Name implements Engine: the Shrink protocol names the engine.
func (f *Framework) Name() string { return f.shrink.Name() }

// Step implements Engine: one time step is a batch of one.
func (f *Framework) Step(st workload.Step) {
	f.StepBatch([]workload.Step{st})
}

// StepBatch ingests a contiguous run of time steps — the one step loop of
// the engine, and the engine-side target of batched ingestion
// (incshrink.DB.AdvanceBatch and the serving layer's batch uploads). Each
// step queues its upload block (when the owners' schedule ships one), runs
// Transform over the queued blocks if the step ends a segment, then lets the
// Shrink protocol act (the DP protocols flush the cache at the end of theirs).
//
// Config.MergeWindows selects segment boundaries and nothing else. Off,
// every step ends a segment: each upload block gets its own Transform, so
// the result — counts, simulated costs, RNG draws, snapshots — does not
// depend on how the steps were cut into calls. On, a segment ends only where
// deferral would be visible — the Shrink protocol observes the counter or
// the cache (StepObserver), or the batch ends (blocks are never held across
// calls) — and the segment's k blocks share
// one Transform. See transform and DESIGN.md §12 for what differs at k > 1.
// The per-step scratch is warm after the first step, so marginal steps run
// off the allocator.
func (f *Framework) StepBatch(steps []workload.Step) {
	f.blocks = f.blocks[:0]
	for i := range steps {
		st := steps[i]
		f.rt.SetTime(st.T)

		// Public-relation arrivals accumulate between uploads; Transform runs
		// only when owners submit data, so each record is charged omega once
		// per upload period and its budget spans the temporal join window.
		f.arrive(right, st.Right)
		if f.uploadDue(st.T) {
			f.arrive(left, st.Left)
			padStart := f.ins.now()
			f.blocks = append(f.blocks, f.admit(st.T))
			f.ins.observePad(padStart)
		}
		// Transform must land before anything at this step can observe its
		// effect.
		if len(f.blocks) > 0 && (!f.cfg.MergeWindows || f.observesAt(st.T) || i == len(steps)-1) {
			f.transform(f.blocks)
			f.blocks = f.blocks[:0]
		}

		shrinkProbe := f.ins.phaseStart(f.rt, mpc.OpShrink)
		f.shrink.Tick(f, st.T)
		f.ins.phaseDone("shrink", shrinkProbe, f.rt)

		f.now = st.T + 1
		f.ins.stepDone(f)
	}
}

// Now returns the logical time of the step the engine runs next.
func (f *Framework) Now() int { return f.now }

// arrive copies a step's records of stream s; the caller's rows are not reread.
func (f *Framework) arrive(s int, recs []oblivious.Record) {
	for _, r := range recs {
		f.pending[s].AppendRow(r.Row[:workload.StreamArity])
	}
}

// uploadBlock is one step's upload queued for Transform: the step time and,
// per stream, the rows it appended to the carry.
type uploadBlock struct {
	t int
	n [2]int
}

// observesAt reports whether the Shrink protocol will look at the counter or
// the cache at step t. Protocols that don't declare their observation
// schedule (StepObserver) are assumed to observe every step, which
// degenerates window merging to per-step transforms — correct, just not
// faster.
func (f *Framework) observesAt(t int) bool {
	if so, ok := f.shrink.(StepObserver); ok {
		return so.ObservesAt(f, t)
	}
	return true
}

// uploadDue reports whether the owners' schedule ships a (possibly empty,
// fully padded) block this step — Transform runs on schedule even when no
// real data arrived, hiding the distinction.
func (f *Framework) uploadDue(t int) bool {
	return (t+1)%f.wl.UploadEvery == 0
}

// transform is the Transform protocol of Algorithm 1 over one segment of
// k >= 1 upload blocks; k = 1 is the algorithm with its full-input sort
// replaced by "sort the new block, merge it into the carry", which yields
// the same sorted union. Its intermediates live in per-framework scratch, so
// a steady-state invocation stays off the allocator, and every padded size is
// a public function of k and the deployment. Relative to k single-block
// invocations, a k-block segment (DESIGN.md §12):
//
//   - runs one sort of the k new blocks and one merge into the carry — the
//     price list follows the sizes that ran, so the saving is priced, not
//     hidden;
//   - bounds each record's contribution by omega per MERGED invocation, not
//     per block — the same pair set wherever a record's pairs all land in one
//     block (multiplicity-1 streams);
//   - re-shares the cardinality counter once per covered block, every reshare
//     carrying the final count, so the RNG stream and the counter at every
//     observation point line up with sequential execution (no Shrink
//     observation can occur inside a segment, by construction);
//   - ages budgets identically: stream.retire charges omega and applies the
//     temporal-window check once per block of the segment;
//   - counts as one invocation and emits one batch event for the merged delta
//     (the merged sizes are public, so the security argument is unchanged).
func (f *Framework) transform(blocks []uploadBlock) {
	probe := f.ins.phaseStart(f.rt, mpc.OpTransform)
	f.transforms++
	var fresh [2]int
	for _, b := range blocks {
		fresh[left] += b.n[left]
		fresh[right] += b.n[right]
	}

	// Charge contribution budgets on the ledgers and find the blocks that ran
	// out: public bookkeeping, settled first so the join knows what stays.
	// Blocks lapse oldest first, so a side's lapsed rows are the prefix of
	// its arrival order that the ledger no longer holds.
	var cut [2]int
	for s := range f.str {
		f.str[s].retire(blocks, f.cfg.Omega, f.wl.Within)
		cut[s] = f.carry.Side[s].Len() - f.str[s].rows()
	}

	// The join condition is the view definition's temporal predicate, plus
	// "at least one side is new" so pairs an earlier invocation produced are
	// not regenerated. New is positional: the rows at the sides' tails. The
	// padded output lands straight on the delta compaction's input, behind the
	// entries carried over from earlier invocations — or, uncompacted, is the
	// delta.
	limit := f.deltaCap(fresh[left], fresh[right])
	joined := f.overflow
	if limit == 0 {
		joined = f.deltaBuf
		joined.Reset()
	}
	// The join's scan also retires the lapsed blocks: the keys that stay, in
	// join order, are the next carry's at the public size the ledgers now
	// hold. It is an order-preserving compaction of the merged keys — a
	// fixed-topology pass, because in key order which rows a block owns is
	// secret.
	n := f.carry.Len()
	oblivious.MergeJoinInto(joined, f.carry, fresh, cut, f.match, f.cfg.Omega)

	// Tighten the exhaustively padded join output to the public
	// maximum-new-entries bound before caching. Entries beyond the cap (rare
	// late-shipped pairs) carry over to the next invocation's batch.
	delta := f.deltaBuf
	compacted := 0
	if limit > 0 {
		compacted = f.overflow.Len()
		delta.Reset()
		f.spill.Reset()
		oblivious.TightCompactInto(f.overflow, limit, delta, f.spill, nil, 0, 0)
		f.overflow, f.spill = f.spill, f.overflow
	}
	priceTransform(f.rt.Meter, n, fresh[left]+fresh[right], f.cfg.Omega, compacted)

	// Alg. 1 lines 4-6: update and re-share the cardinality counter — one
	// reshare per covered block so the joint-randomness stream advances
	// exactly as it would block by block; every reshare carries the final
	// count, which is the only value any later observation can see. The
	// recovery and the re-shares are one round: the new total enters only at
	// S1, under the mask the round yields. The re-shares take the slots
	// after the recovery's.
	newReal := delta.Real()
	rd := f.rt.Round()
	cw := rd.Recover(counterKey)
	for range blocks {
		rd.Reshare(counterKey)
	}
	f.exchange(rd)
	total := uint32(int(int32(rd.Recovered(cw))) + newReal)
	for i := range blocks {
		rd.Share(cw+1+i, total)
	}
	f.created += newReal

	// Alg. 1 line 7: append the exhaustively padded output to the cache
	// (Append copies; delta is framework scratch reused by the next
	// invocation). A compacted delta holds its reals first, so the next read
	// merges it rather than sorting it.
	if limit > 0 {
		f.cache.AppendRealFirst(delta)
	} else {
		f.cache.Append(delta)
	}
	f.rt.ObserveBatch(delta.Len(), "transform")

	f.ins.phaseDone("transform", probe, f.rt)
}

// Query implements Engine: one oblivious scan over the materialized view,
// counting real entries (the view definition already encodes the temporal
// predicate, so the standing query counts every real view tuple).
func (f *Framework) Query() (int, float64) { return f.QueryWhere(nil) }

// QueryWhere answers a filtered count over the materialized view with one
// oblivious scan — the execution target of rewritten queries (query.Lower).
// View columns have the layout {left..., right...}; the scan kernel reads
// only the flag column and the columns conds names, and is priced as one
// pass over every slot at full tuple width whatever they are.
func (f *Framework) QueryWhere(conds []oblivious.ScanCond) (int, float64) {
	qProbe := f.ins.phaseStart(f.rt, mpc.OpQuery)
	before := f.rt.Meter.Seconds(mpc.OpQuery)
	priceQuery(f.rt.Meter, f.view.Len())
	res := f.view.Count(conds)
	qet := f.rt.Meter.Seconds(mpc.OpQuery) - before
	f.queries++
	f.querySecs += qet
	f.ins.phaseDone("query", qProbe, f.rt)
	return res, qet
}

// Metrics implements Engine.
func (f *Framework) Metrics() Metrics {
	return Metrics{
		ViewLen:       f.view.Len(),
		ViewReal:      f.view.Real(),
		ViewBytes:     f.view.SizeBytes(tupleBits),
		CacheLen:      f.cache.Len(),
		CacheReal:     f.cache.Real(),
		Updates:       f.view.Updates(),
		Transforms:    f.transforms,
		LostReal:      f.lostReal,
		Created:       f.created,
		TransformSecs: f.rt.Meter.Seconds(mpc.OpTransform),
		ShrinkSecs:    f.rt.Meter.Seconds(mpc.OpShrink),
		QuerySecs:     f.querySecs,
		Queries:       f.queries,
		TotalMPCSecs:  f.rt.Meter.Seconds(mpc.OpTransform) + f.rt.Meter.Seconds(mpc.OpShrink),
	}
}
