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
// a deployment chooses and the Shape it declares. build derives the rest — the
// prune and spill bounds, the cost model — and the baselines' constructors
// set their own.
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
	// MergeWindows lets the upload blocks between two Shrink observation
	// points share one Transform; it selects StepBatch's segment boundaries
	// and nothing else (see StepBatch and DESIGN.md §12).
	MergeWindows bool
	// Seed drives all protocol randomness.
	Seed int64
	// Shape is the deployment's public shape.
	Shape Shape
}

// Shape is what a deployment declares about its data: by Theorems 7/8 the
// servers learn only these public sizes and the DP releases.
type Shape struct {
	// UploadEvery is the owners' upload period in steps (1 = daily).
	UploadEvery int
	// Within is the view's temporal join window in steps (withinWindow).
	Within int64
	// MaxLeft and MaxRight are the upload block sizes every upload is padded to.
	MaxLeft, MaxRight int
	// RightPublic marks the right relation as public (the CPDB Award table):
	// its records are not padded and carry no contribution budget.
	RightPublic bool
	// RightDrivesPairs declares that (almost) every new join pair involves a
	// newly uploaded right record, which caps a Transform's delta at
	// omega * |new right|: a cap whose breach is truncation, like omega's.
	RightDrivesPairs bool
	// PairRate is a declared mean of new view entries per step, 0 for none;
	// only spillBound reads it.
	PairRate float64
}

// nextUpload is the owners' upload schedule, the one rule admission follows:
// step t is an upload iff (t+1) % UploadEvery == 0, and nextUpload returns the
// first upload at or after t — the one that ships what arrives at t.
func (sh Shape) nextUpload(t int) int {
	return t + (-(t+1)%sh.UploadEvery+sh.UploadEvery)%sh.UploadEvery
}

// spillBound sizes the per-update deferred-data spill: the slots each view
// update moves from the head of the sorted cache beyond the DP-sized fetch.
// Real tuples sort first, so the spill drains deferred data at a rate
// *independent of epsilon*: the deferred-data level — and with it the
// privacy-accuracy trade-off of Figure 5 — still scales with the noise while
// no longer growing with the horizon, at the cost of at most that many dummy
// view slots per update. With a data rate it is about a quarter of one
// update's expected new entries, and Section 7 sizes that volume as Theta
// (T = Theta / rate), so the spill follows Theta, not T. A deployment that
// declares no rate spills max(omega, 2).
func spillBound(cfg Config) int {
	if cfg.Shape.PairRate > 0 {
		return int(math.Ceil(cfg.Theta/4)) + 1
	}
	return max(cfg.Omega, 2)
}

// pruneBound computes the public cache length the incremental prune keeps:
// the Theorem-4 deferred-data bound for the configured epsilon/budget plus
// two padded batches of headroom.
func pruneBound(cfg Config) int {
	// Deferred-data bound (Theorem 4) over a short horizon of 8 updates at
	// beta 0.05, plus two padded batches of headroom: beyond this length the
	// sorted cache tail is dummy with high probability. An unlimited Budget
	// (0) bounds nothing, so it adds no deferred-data headroom.
	alpha, err := dp.DeferredDataBound(float64(cfg.Budget), cfg.Epsilon, 8, 0.05)
	if err != nil {
		alpha = 0
	}
	batch := cfg.Omega * (cfg.Shape.MaxLeft + cfg.Shape.MaxRight)
	if cfg.Shape.RightDrivesPairs {
		batch = cfg.Omega * cfg.Shape.MaxRight
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
	case c.T < 0:
		return fmt.Errorf("core: T must be non-negative, got %d", c.T)
	case c.Omega < 1:
		return fmt.Errorf("core: Omega must be at least 1, got %d", c.Omega)
	case c.Budget != 0 && c.Budget < c.Omega:
		return fmt.Errorf("core: Budget %d below Omega %d would retire records before first use", c.Budget, c.Omega)
	case c.Shape.UploadEvery < 1:
		return fmt.Errorf("core: UploadEvery must be positive, got %d", c.Shape.UploadEvery)
	case c.Shape.Within < 0:
		return fmt.Errorf("core: Within must be non-negative, got %d", c.Shape.Within)
	case c.Shape.MaxLeft < 1 || c.Shape.MaxRight < 1:
		return fmt.Errorf("core: block sizes must be positive, got %d/%d", c.Shape.MaxLeft, c.Shape.MaxRight)
	case !(c.Shape.PairRate >= 0) || math.IsInf(c.Shape.PairRate, 0):
		return fmt.Errorf("core: PairRate must be non-negative and finite, got %v", c.Shape.PairRate)
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
	rt  *mpc.Runtime

	cache *securearray.Cache
	view  *securearray.View

	// carry is the Transform's standing input — both streams' live records
	// and block pads, each side in arrival order, with their sort keys in
	// join order — str the two public ledgers of the upload blocks in it
	// (carry.go), and pending the public relation's arrivals since its last upload.
	carry   *oblivious.Union
	str     [2]stream
	pending *oblivious.Buffer

	proto    protocol
	replay   *releases // nil but in the Theorem-7/8 tests; see releases
	prune    int       // the public cache length each view update keeps (pruneBound)
	spillLen int       // the public slots each view update spills (spillBound)
	match    oblivious.MatchFunc
	dummyID  int64 // ascending generator for padding-record keys

	// joined and deltaBuf are per-transform scratch, framework-owned so the
	// steady-state Advance path allocates (almost) nothing: the padded join
	// output, max(omega, 1) slots per key, and the delta compacted from it.
	// Both are reset by every Transform, so neither length is state.
	joined, deltaBuf *oblivious.Buffer

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

// build builds an engine for a deployment running the given protocol.
func build(cfg Config, proto protocol) (*Framework, error) {
	return newOn(mpc.NewRuntime(mpc.DefaultCostModel(), cfg.Seed), cfg, proto)
}

// newOn is build over a runtime the caller built from the default cost model
// and cfg's seed. Construction already shares the counter (and sDPANT its
// first threshold), so the leakage tests, which must see a party's transcript
// from its first event, attach their recorders to rt before handing it over.
func newOn(rt *mpc.Runtime, cfg Config, proto protocol) (*Framework, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Public input sizes: every block is padded to the block size and the
	// carry holds the blocks of the invocations a record survives after its
	// first, so the Transform input — and therefore its cost and its padded
	// output — is data-independent. They are allocated in full whatever the
	// data, the carry before build returns, so they are bounded first.
	sh := cfg.Shape
	inv := invocationsPerRecord(cfg)
	width := sh.MaxLeft + sh.MaxRight
	if sh.MaxLeft > maxJoinRows || sh.MaxRight > maxJoinRows ||
		inv > maxJoinRows/width || cfg.Omega > maxJoinRows/(inv*width) {
		return nil, fmt.Errorf("core: a padded join output of omega %d × %d blocks of %d+%d rows exceeds %d rows",
			cfg.Omega, inv, sh.MaxLeft, sh.MaxRight, maxJoinRows)
	}
	f := &Framework{
		cfg:      cfg,
		rt:       rt,
		cache:    securearray.New(workload.JoinArity, 0, nil),
		view:     securearray.NewView(workload.JoinArity),
		proto:    proto,
		prune:    pruneBound(cfg),
		spillLen: spillBound(cfg),
		match:    withinWindow(sh.Within),
		carry:    oblivious.NewUnion(workload.StreamArity, workload.ColKey),
		pending:  oblivious.NewBuffer(workload.StreamArity, 0),
		joined:   oblivious.NewBuffer(workload.JoinArity, 0),
		deltaBuf: oblivious.NewBuffer(workload.JoinArity, 0),
		dummyID:  math.MinInt64,
	}
	// A public relation needs neither padding nor a budget (its content is
	// not secret).
	keep := inv - 1
	f.str[left] = stream{total: cfg.Budget, block: sh.MaxLeft, keep: keep}
	f.str[right] = stream{keep: -1}
	if !sh.RightPublic {
		f.str[right] = stream{total: cfg.Budget, block: sh.MaxRight, keep: keep}
	}
	f.prefill()
	// Alg. 1 line 1-2: initialize the shared cardinality counter to zero.
	rt.ShareToServers(counterKey, 0)
	if proto == ant {
		f.antInit()
	}
	return f, nil
}

// invocationsPerRecord is the public number of Transform invocations any
// record participates in: limited by its contribution budget (b/omega uses)
// and by the temporal join window (a record older than Within steps can no
// longer form new pairs).
func invocationsPerRecord(cfg Config) int {
	byWindow := int(min(cfg.Shape.Within/int64(cfg.Shape.UploadEvery), math.MaxInt-1)) + 1
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

// withinWindow is the view definition's temporal predicate: key equality is
// handled by the join operator; this checks the right event happened within
// w steps after the left event (Q1's "ReturnDate - SaleDate <= 10").
func withinWindow(w int64) oblivious.MatchFunc {
	return func(l, r oblivious.Record) bool {
		d := r.Row[workload.ColTime] - l.Row[workload.ColTime]
		return d >= 0 && d <= w
	}
}

// deltaCap is the public bound on new view entries per Transform invocation:
// every new pair involves at least one newly uploaded record, and each
// record contributes at most omega entries per invocation, so
// omega * (new left + new right) bounds the batch — or omega * new right
// alone when the Shape declares that pairs are right-driven, a declared
// cap whose rare exceptions are truncated like omega's. A zero cap disables
// tight compaction: the EP baseline caches the raw padded output, the
// defining naivety of exhaustive padding.
func (f *Framework) deltaCap(nLeft, nRight int) int {
	if f.proto == ep {
		return 0
	}
	if f.cfg.Shape.RightDrivesPairs {
		return f.cfg.Omega * nRight
	}
	return f.cfg.Omega * (nLeft + nRight)
}

const counterKey = "c"

// Step implements Engine: one time step is a batch of one.
func (f *Framework) Step(st workload.Step) {
	f.StepBatch([]workload.Step{st})
}

// StepBatch ingests a contiguous run of time steps — the one step loop of
// the engine, and the engine-side target of batched ingestion
// (incshrink.DB.AdvanceBatch and the serving layer's batch uploads). Each
// upload step admits its block (CheckStep), runs Transform over the admitted
// blocks if the step ends a segment, then lets the Shrink protocol act (the
// DP protocols flush the cache at the end of theirs). A padded stream's rows
// are read only at an upload and only up to its block size, so rows off the
// owners' schedule never reach the carry; incshrink.DB refuses them first. An
// OTM engine whose view holds its one materialization ignores the steps.
//
// Config.MergeWindows selects segment boundaries and nothing else. Off,
// every step ends a segment: each upload block gets its own Transform, so
// the result — counts, simulated costs, RNG draws, snapshots — does not
// depend on how the steps were cut into calls. On, a segment ends only where
// deferral would be visible — the Shrink protocol observes the counter or
// the cache (observesAt), or the batch ends (blocks are never held across
// calls) — and the segment's k blocks share one Transform. See transform and
// DESIGN.md §12 for what differs at k > 1. The per-step scratch is warm after
// the first step, so marginal steps run off the allocator.
func (f *Framework) StepBatch(steps []workload.Step) {
	k := 0 // blocks admitted since the segment began
	for i := range steps {
		if f.proto == otm && f.view.Len() > 0 {
			return
		}
		st := steps[i]
		f.rt.SetTime(st.T)

		// Public-relation arrivals accumulate between uploads; Transform runs
		// only when owners submit data, so each record is charged omega once
		// per upload period and its budget spans the temporal join window.
		if f.str[right].block == 0 {
			for _, r := range st.Right {
				f.pending.AppendRow(r.Row[:workload.StreamArity])
			}
		}
		if f.uploadDue(st.T) {
			padStart := f.ins.now()
			f.admit(st.T, [2][]oblivious.Record{st.Left, st.Right})
			k++
			f.ins.observePad(padStart)
		}
		// Transform must land before anything at this step can observe its
		// effect.
		if k > 0 && (!f.cfg.MergeWindows || f.observesAt(st.T) || i == len(steps)-1) {
			f.transform(k)
			k = 0
		}

		shrinkProbe := f.ins.phaseStart(f.rt, phaseShrink)
		f.tick(st.T)
		f.ins.phaseDone(shrinkProbe, f.rt)

		f.now = st.T + 1
		f.ins.stepDone(f)
	}
}

// Now returns the logical time of the step the engine runs next.
func (f *Framework) Now() int { return f.now }

// CheckStep holds step t's arrivals, n rows per stream, to the owners'
// schedule: a padded stream may carry rows only at an upload, and at most
// its block size; the public relation may carry rows at any step. It mutates
// nothing, and its error names the step and the stream.
func (f *Framework) CheckStep(t int, n [2]int) error {
	for s, str := range f.str {
		if str.block > 0 && (n[s] > str.block || n[s] > 0 && !f.uploadDue(t)) {
			return fmt.Errorf("step %d: %d %s rows off the owners' schedule (blocks of at most %d rows at steps t with (t+1) %% %d == 0)",
				t, n[s], [2]string{"left", "right"}[s], str.block, f.cfg.Shape.UploadEvery)
		}
	}
	return nil
}

// observesAt reports whether the Shrink protocol will look at the counter or
// the cache at step t. sDPTimer touches them only on its T-step schedule and
// at the cache flushes; the others observe every step, which degenerates
// window merging to per-step transforms — correct, just not faster. The
// declaration must be conservative: claiming "no observation" at a step
// where tick does look would let merging change what the protocol sees.
func (f *Framework) observesAt(t int) bool {
	return f.proto != timer || timerDue(t, f.cfg.T) || flushDue(t)
}

// uploadDue reports whether the owners' schedule ships a (possibly empty,
// fully padded) block this step — Transform runs on schedule even when no
// real data arrived, hiding the distinction.
func (f *Framework) uploadDue(t int) bool { return f.cfg.Shape.nextUpload(t) == t }

// transform is the Transform protocol of Algorithm 1 over one segment, the
// ledgers' newest k >= 1 upload blocks; k = 1 is the algorithm with its
// full-input sort replaced by "sort the new block, merge it into the carry",
// which yields the same sorted union. Its intermediates live in per-framework
// scratch, so a steady-state invocation stays off the allocator, and every
// padded size is a public function of k and the deployment. Relative to k
// single-block invocations, a k-block segment (DESIGN.md §12):
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
func (f *Framework) transform(k int) {
	probe := f.ins.phaseStart(f.rt, phaseTransform)
	f.transforms++

	// Read the segment's rows off the ledgers, then charge contribution
	// budgets and find the blocks that ran out: public bookkeeping, settled
	// first so the join knows what stays. Blocks lapse oldest first, so a
	// side's lapsed rows are the prefix of its arrival order that the ledger
	// no longer holds.
	var fresh, cut [2]int
	for s := range f.str {
		live := f.str[s].live
		for _, b := range live[len(live)-k:] {
			fresh[s] += b.n
		}
		f.str[s].retire(k, f.cfg.Omega, f.cfg.Shape.Within)
		cut[s] = f.carry.Side[s].Len() - f.str[s].rows()
	}

	// The join condition is the view definition's temporal predicate, plus
	// "at least one side is new" so pairs an earlier invocation produced are
	// not regenerated. New is positional: the rows at the sides' tails. The
	// join's scan also retires the lapsed blocks: the keys that stay, in join
	// order, are the next carry's at the public size the ledgers now hold. It
	// is an order-preserving compaction of the merged keys — a fixed-topology
	// pass, because in key order which rows a block owns is secret.
	n := f.carry.Len()
	f.joined.Reset()
	oblivious.MergeJoinInto(f.joined, f.carry, fresh, cut, f.match, f.cfg.Omega)

	// Tighten the exhaustively padded join output to the public
	// maximum-new-entries bound before caching — or, uncompacted, cache it
	// as the delta. Real entries beyond the cap (rare late-shipped pairs
	// under RightDrivesPairs) are dropped, like omega's truncation, and
	// counted as created and lost.
	delta, compacted := f.joined, 0
	limit := f.deltaCap(fresh[left], fresh[right])
	if limit > 0 {
		delta = f.deltaBuf
		compacted = f.joined.Len()
		delta.Reset()
		oblivious.TightCompactInto(f.joined, limit, delta, nil, nil, 0, 0)
		f.lostReal += f.joined.Real() - delta.Real()
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
	for range k {
		rd.Reshare(counterKey)
	}
	f.exchange(rd)
	total := uint32(int(int32(rd.Recovered(cw))) + newReal)
	for i := range k {
		rd.Share(cw+1+i, total)
	}
	f.created += f.joined.Real()

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

	f.ins.phaseDone(probe, f.rt)
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
	qProbe := f.ins.phaseStart(f.rt, phaseQuery)
	before := f.rt.Meter.Seconds(mpc.OpQuery)
	priceQuery(f.rt.Meter, f.view.Len())
	res := f.view.Count(conds)
	qet := f.rt.Meter.Seconds(mpc.OpQuery) - before
	f.queries++
	f.querySecs += qet
	f.ins.phaseDone(qProbe, f.rt)
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
