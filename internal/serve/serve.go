// Package serve is the multi-tenant serving subsystem: a registry hosting
// many named IncShrink views (one incshrink.DB per tenant/view, each with
// its own ViewDef/Options) behind a concurrency model the bare library does
// not provide. A bare incshrink.DB is confined to a single goroutine; the
// serve layer makes many of them jointly usable from arbitrary goroutines:
//
//   - Writes go through one bounded mailbox per view (mailboxDepth requests)
//     drained by a single ingest goroutine, which applies each request as its
//     own incshrink.DB.AdvanceBatch. Advance stays strictly serialized per
//     view (the paper's "owners upload in time-step order" invariant) while
//     distinct views ingest in parallel. Batching is the owner's lever: a
//     client that wants the paper's Figure 4 amortization sends several steps
//     in one AdvanceBatch request.
//   - Admission is the mailbox itself: an upload that finds it full fails fast
//     with ErrBusy, which the HTTP front end maps to 503 + Retry-After: 1.
//   - The registry is one map under one RWMutex: Get is a read lock, and
//     Create and Drop hold the write lock for a map insert or delete only —
//     opening a DB and draining a mailbox both run outside it.
//   - Reads (CountWhere, Stats) take the view's mutex directly and interleave
//     between queued uploads, so queries are served while ingestion is in
//     flight instead of waiting behind the whole mailbox. Note that "reads"
//     still serialize on the mutex: a simulated secure query charges the
//     view's cost meter, so it is a write at the DB layer.
//
// Determinism is preserved per view: because the mailbox serializes each
// view's step order and AdvanceBatch is byte-identical to sequential
// Advance calls, a view ingesting a given step sequence through the
// registry — under any amount of cross-view concurrency — produces counts
// byte-identical to a sequential single-view run at the same seed.
//
// Lifecycle is race-free by construction and pinned by race-detector tests:
// a view registered concurrently with Close is either drained by Close or
// rejected with ErrClosed (the check-and-register is atomic under the registry
// lock Close's sweep takes after setting the closed flag), and Drop keeps
// the name reserved until the view's ingest loop has exited and its
// checkpoint file is gone, so neither a queued checkpoint nor an immediate
// re-Create can resurrect a dropped tenant's state.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"incshrink"
	"incshrink/internal/core"
	"incshrink/internal/obs"
)

const (
	// mailboxDepth is each view's ingest queue capacity, in requests.
	mailboxDepth = 16
	// maxBatchSteps caps the steps one client AdvanceBatch request may carry:
	// a batch is applied atomically under the view mutex, so an unbounded one
	// could starve the view's readers.
	maxBatchSteps = 512
)

// Sentinel errors of the serving layer.
var (
	// ErrBusy reports a full ingest mailbox: the upload or checkpoint was not
	// admitted and may be retried.
	ErrBusy = errors.New("serve: view ingest mailbox full, request not admitted")
	// ErrNotFound reports an unknown view name.
	ErrNotFound = errors.New("serve: view not found")
	// ErrExists reports a Create against a name already registered
	// (including one still draining after a Drop).
	ErrExists = errors.New("serve: view already exists")
	// ErrClosed reports an operation against a closed registry or a
	// dropped view.
	ErrClosed = errors.New("serve: closed")
)

// Config tunes the registry.
type Config struct {
	// DataDir enables durability: each view checkpoints to
	// <DataDir>/<escaped name>.snap, RestoreAll re-registers every snapshot
	// found there at boot, and the snapshot endpoint/periodic checkpointing
	// become available. Empty disables persistence.
	DataDir string
	// CheckpointEvery checkpoints a view after every N applied uploads
	// (through the ingest loop, so a checkpoint never tears a step).
	// 0 disables periodic checkpointing; explicit checkpoints and
	// checkpoint-on-shutdown still work whenever DataDir is set.
	CheckpointEvery int
	// Metrics, when non-nil, turns on instrumentation: the serving
	// families (queue depth, latencies, checkpoint cost) are registered on
	// it, and every hosted view's engine gets core/mpc instruments attached.
	// Instruments observe but never perturb: per-view counts and snapshots
	// are byte-identical with or without a Metrics registry (pinned by test).
	Metrics *obs.Registry
	// Traces, when non-nil, records request spans (HTTP dispatch, mailbox
	// wait, apply) into the ring, dumpable via /debug/traces.
	Traces *obs.TraceLog
	// Logger, when non-nil, emits structured access logs (with trace IDs)
	// from the HTTP handler.
	Logger *slog.Logger
}

// Registry hosts named views. All methods are safe for concurrent use.
type Registry struct {
	cfg Config

	closed atomic.Bool // no new views or uploads once set
	mu     sync.RWMutex
	views  map[string]*View // guarded by mu
	wg     sync.WaitGroup   // running ingest loops

	// Observability attachments (all optional, see Config): the serve
	// metric families, the per-view engine instrument set, the span ring
	// and the access logger. restoring gates readiness during RestoreAll.
	met       *serveMetrics
	ins       *core.InstrumentSet
	traces    *obs.TraceLog
	logger    *slog.Logger
	restoring atomic.Bool
}

// NewRegistry creates an empty registry.
func NewRegistry(cfg Config) *Registry {
	r := &Registry{
		cfg:    cfg,
		views:  make(map[string]*View),
		traces: cfg.Traces,
		logger: cfg.Logger,
	}
	if cfg.Metrics != nil {
		r.met = newServeMetrics(cfg.Metrics, r)
		r.ins = core.NewInstrumentSet(cfg.Metrics)
	}
	return r
}

// Create opens a new view under the given name and starts its ingest loop.
func (r *Registry) Create(name string, def incshrink.ViewDef, opts incshrink.Options) (*View, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: view name must be non-empty", incshrink.ErrInvalidArgument)
	}
	// Check admission before incshrink.Open — building a framework is
	// expensive and a retrying client should not pay it for a 409. The
	// authoritative re-check happens in register, under the write lock.
	if r.closed.Load() {
		return nil, ErrClosed
	}
	r.mu.RLock()
	_, dup := r.views[name]
	r.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	db, err := incshrink.Open(def, opts)
	if err != nil {
		return nil, err
	}
	return r.register(name, db)
}

// register installs a ready DB under name and starts its ingest loop — the
// shared tail of Create and RestoreAll. The closed check and the map insert
// are atomic under the registry lock: Close sets the closed flag *before*
// sweeping the map under the same lock, so a concurrent register either
// observes the flag (and rejects) or lands in the map before the sweep
// (and is drained by Close). No ingest loop can escape both.
func (r *Registry) register(name string, db *incshrink.DB) (*View, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return nil, ErrClosed
	}
	if _, ok := r.views[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	v := &View{
		name:     name,
		reg:      r,
		db:       db,
		mailbox:  make(chan *ingestReq, mailboxDepth),
		loopDone: make(chan struct{}),
	}
	if r.ins != nil {
		// Attach the engine instruments before the first step can apply, so
		// the view's whole history is observed.
		db.Instrument(r.ins.ForView(name))
	}
	r.views[name] = v
	r.wg.Add(1)
	//lint:allow goleak Close and Drop wait on r.wg
	go v.ingestLoop(&r.wg)
	return v, nil
}

// Get returns the named view. Views mid-Drop resolve as not found.
func (r *Registry) Get(name string) (*View, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.views[name]
	if !ok || v.dropping {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return v, nil
}

// live returns the registered views that are not mid-Drop, sorted by name.
func (r *Registry) live() []*View {
	r.mu.RLock()
	out := make([]*View, 0, len(r.views))
	for _, v := range r.views { //lint:allow maporder sorted by name below
		if !v.dropping {
			out = append(out, v)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Names lists the registered views in sorted order.
func (r *Registry) Names() []string {
	var out []string
	for _, v := range r.live() {
		out = append(out, v.name)
	}
	return out
}

// Len reports how many views are registered.
func (r *Registry) Len() int { return len(r.live()) }

// Drop unregisters the named view: its ingest loop drains (uploads and
// checkpoints already admitted to the mailbox are still applied, in order)
// and exits, then the view's checkpoint file is deleted — DELETE means the
// tenant is gone, not "gone until the next restart resurrects it". The name
// stays reserved (Create returns ErrExists, Get returns ErrNotFound) until
// the drain and the file removal have both finished, so a checkpoint riding
// the mailbox is strictly ordered before the delete and a racing re-Create
// of the same name can never have its fresh checkpoint eaten by the old
// tenant's teardown. Later Advance calls fail with ErrClosed.
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	v, ok := r.views[name]
	if !ok || v.dropping {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	v.dropping = true
	r.mu.Unlock()

	v.stop()
	// Wait for the ingest loop to exit: every admitted upload is applied and
	// every queued checkpoint has written its file before the delete below,
	// so the delete is the terminal event of the tenant's history.
	<-v.loopDone
	var rmErr error
	if r.cfg.DataDir != "" {
		// Marking the view dropped under fileMu closes the remaining write
		// path (CheckpointAll bypasses the mailbox): once dropped is set and
		// the file removed, no code path recreates it.
		v.fileMu.Lock()
		v.dropped = true
		err := os.Remove(r.snapPath(name))
		v.fileMu.Unlock()
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			rmErr = fmt.Errorf("serve: dropping %q checkpoint: %w", name, err)
		}
	}
	r.mu.Lock()
	delete(r.views, name)
	r.mu.Unlock()
	if r.ins != nil {
		// The tenant is gone; its label children must not linger on /metrics.
		r.ins.Drop(name)
	}
	return rmErr
}

// Close shuts the registry down gracefully: no new views or uploads are
// admitted, every mailbox is drained (admitted uploads are applied, not
// dropped), and Close returns when all ingest loops have exited or the
// context is cancelled.
func (r *Registry) Close(ctx context.Context) error {
	r.closed.Store(true)
	// Sweep the map under the lock: any register that won its race against
	// the flag is in the map by now (the insert and the flag check are atomic
	// under the same lock), so its loop is stopped and counted in wg below —
	// no ingest goroutine escapes the drain. Views mid-Drop are included
	// (stop is idempotent).
	r.mu.Lock()
	views := make([]*View, 0, len(r.views))
	for _, v := range r.views { //lint:allow maporder shutdown signal only; stop order has no observable effect
		views = append(views, v)
	}
	r.mu.Unlock()
	for _, v := range views {
		v.stop()
	}
	done := make(chan struct{})
	//lint:allow goleak Close receives done or returns on ctx
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ServeStats are the serving-layer counters of one view, distinct from the
// protocol-level incshrink.Stats underneath.
type ServeStats struct {
	// Advances counts applied upload steps; Rejected counts steps refused
	// at admission (mailbox full); Failed counts requests the DB rejected
	// (for example block-size violations).
	Advances int64 `json:"advances"`
	Rejected int64 `json:"rejected"`
	Failed   int64 `json:"failed"`
	// Batches counts engine ingest calls, one per applied upload request,
	// so Advances/Batches is the mean steps per client request.
	Batches int64 `json:"batches"`
	// Queries counts served Count/CountWhere calls.
	Queries int64 `json:"queries"`
	// RowsLeft and RowsRight count ingested records per stream.
	RowsLeft  int64 `json:"rows_left"`
	RowsRight int64 `json:"rows_right"`
	// Checkpoints counts snapshots written to the data directory;
	// CheckpointErrors counts failed attempts (periodic checkpoint failures
	// are surfaced here rather than failing the upload that triggered them).
	Checkpoints      int64 `json:"checkpoints"`
	CheckpointErrors int64 `json:"checkpoint_errors"`
}

// View is one hosted tenant: a single incshrink.DB behind a serializing
// mailbox. All methods are safe for concurrent use.
type View struct {
	name     string
	reg      *Registry
	mailbox  chan *ingestReq
	loopDone chan struct{} // closed when the ingest loop exits

	// dropping marks a view mid-Drop; guarded by the registry's mutex. The
	// name stays in the map (reserving it against re-Create) until
	// the drain and checkpoint removal finish.
	dropping bool

	// mu guards db — the bare DB is single-goroutine (see the incshrink
	// package docs). The ingest loop holds it per request; readers hold it
	// per query, so reads interleave between queued uploads.
	mu sync.Mutex
	db *incshrink.DB

	advances    atomic.Int64
	rejected    atomic.Int64
	failed      atomic.Int64
	batches     atomic.Int64
	queries     atomic.Int64
	rowsL       atomic.Int64
	rowsR       atomic.Int64
	checkpoints atomic.Int64
	cpErrors    atomic.Int64

	// closeMu guards closing and orders mailbox sends against stop()'s
	// close; it is never held across a DB operation, so admission stays
	// fast even while an upload holds mu.
	closeMu sync.Mutex
	closing bool

	// fileMu serializes checkpoint-file writes (and guards dropped), so
	// concurrent checkpointers cannot rename an older snapshot over a
	// newer one and a Drop is terminal: once dropped is set and the file
	// removed, no code path recreates it.
	fileMu  sync.Mutex
	dropped bool
}

// ingestReq is one mailbox item: a run of upload steps (one for a plain
// Advance, several for an AdvanceBatch), or (checkpoint=true) a request to
// write a snapshot. Routing checkpoints through the mailbox gives them the
// same serialization as uploads — a checkpoint can never tear a step, and
// it reflects every upload admitted before it.
type ingestReq struct {
	steps      []incshrink.StepRows
	checkpoint bool
	done       chan ingestResult

	// trace and admitted carry the request's trace context across the
	// mailbox: the ID minted in the HTTP handler and the admission tick,
	// so the ingest loop can record the mailbox-wait and apply spans
	// against the originating request.
	trace    obs.TraceID
	admitted obs.Ticks
}

type ingestResult struct {
	step int
	path string // checkpoint file, for checkpoint requests
	err  error
}

func (v *View) ingestLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(v.loopDone)
	for req := range v.mailbox {
		if req.checkpoint {
			path, step, err := v.checkpoint()
			req.done <- ingestResult{step: step, path: path, err: err}
			continue
		}
		v.apply(req)
	}
}

// apply applies one upload request as one AdvanceBatch under the view mutex
// and acknowledges it with the view's logical time after its last step.
func (v *View) apply(req *ingestReq) {
	// Wall time here feeds the latency histogram and the trace spans —
	// advisory observability, never view state.
	start := obs.Now()
	v.reg.span(req.trace, "ingest.wait", req.admitted, "")
	v.mu.Lock()
	err := v.db.AdvanceBatch(req.steps)
	step := v.db.Now()
	v.mu.Unlock()
	if req.trace != 0 {
		v.reg.span(req.trace, "ingest.apply", start, fmt.Sprintf("steps=%d", len(req.steps)))
	}
	if err != nil {
		v.failed.Add(1)
		v.reg.met.observeFailed()
		req.done <- ingestResult{step: step, err: err}
		return
	}
	n := int64(len(req.steps))
	v.batches.Add(1)
	v.advances.Add(n)
	for _, s := range req.steps {
		v.rowsL.Add(int64(len(s.Left)))
		v.rowsR.Add(int64(len(s.Right)))
	}
	v.reg.met.observeApplied(len(req.steps), start)
	req.done <- ingestResult{step: step}

	// Periodic durability: checkpoint when the applied-upload counter
	// crosses a CheckpointEvery boundary, after the acknowledgment (so the
	// disk write never sits in an ack path) but still inside the ingest
	// loop, before the next mailbox item — no other writer can run first,
	// so the snapshot is exactly the post-request state. Failures are
	// counted (and visible in stats) but do not fail any upload.
	if every := int64(v.reg.cfg.CheckpointEvery); every > 0 && v.reg.cfg.DataDir != "" {
		if adv := v.advances.Load(); adv/every != (adv-n)/every {
			v.checkpoint()
		}
	}
}

// stop closes the mailbox exactly once; admitted uploads drain first.
func (v *View) stop() {
	v.closeMu.Lock()
	defer v.closeMu.Unlock()
	if v.closing {
		return
	}
	v.closing = true
	close(v.mailbox)
}

// submit admits req to the mailbox without blocking and waits for its
// result: ErrClosed once the view is stopping, ErrBusy when the mailbox is
// full, ctx's error if it is cancelled first (the request still runs).
func (v *View) submit(ctx context.Context, req *ingestReq) (ingestResult, error) {
	// The send must not race stop()'s close of the mailbox: check and send
	// under the same lock stop() takes, making stop-then-send impossible.
	v.closeMu.Lock()
	if v.closing {
		v.closeMu.Unlock()
		return ingestResult{}, ErrClosed
	}
	select {
	case v.mailbox <- req:
		v.closeMu.Unlock()
	default:
		v.closeMu.Unlock()
		return ingestResult{}, ErrBusy
	}
	select {
	case res := <-req.done:
		return res, nil
	case <-ctx.Done():
		return ingestResult{}, ctx.Err()
	}
}

// enqueue admits a run of steps to the ingest queue and waits for the
// acknowledgment — the shared body of Advance and AdvanceBatch.
func (v *View) enqueue(ctx context.Context, steps []incshrink.StepRows) (int, error) {
	if len(steps) == 0 {
		return 0, fmt.Errorf("%w: empty batch", incshrink.ErrInvalidArgument)
	}
	if len(steps) > maxBatchSteps {
		return 0, fmt.Errorf("%w: batch of %d steps exceeds the %d-step limit",
			incshrink.ErrInvalidArgument, len(steps), maxBatchSteps)
	}
	req := &ingestReq{steps: steps, done: make(chan ingestResult, 1)}
	if id, ok := obs.TraceFrom(ctx); ok {
		req.trace = id
		req.admitted = obs.Now()
	}
	res, err := v.submit(ctx, req)
	if errors.Is(err, ErrBusy) {
		v.rejected.Add(int64(len(steps)))
		v.reg.met.observeRejected(len(steps))
	}
	if err != nil {
		return 0, err
	}
	return res.step, res.err
}

// Advance admits one time step of uploads to the view's ingest queue and
// waits for it to be applied, returning the view's logical time after the
// step. A full mailbox fails fast with ErrBusy (the caller should retry or
// shed load); a dropped view or closed registry fails with ErrClosed. If ctx
// is cancelled while the upload is queued, Advance returns the context error
// but the upload is still applied in order.
func (v *View) Advance(ctx context.Context, left, right []incshrink.Row) (int, error) {
	return v.enqueue(ctx, []incshrink.StepRows{{Left: left, Right: right}})
}

// AdvanceBatch admits a contiguous run of time steps as one all-or-nothing
// unit and waits for it, returning the view's logical time after the last
// step. The batch inherits incshrink.DB.AdvanceBatch's contract: either
// every step applies, in order, or none do (the error names the offending
// step). The batch takes one mailbox slot, and batches above 512 steps are
// rejected outright (they would hold the view mutex for their whole atomic
// application).
func (v *View) AdvanceBatch(ctx context.Context, steps []incshrink.StepRows) (int, error) {
	return v.enqueue(ctx, steps)
}

// CountWhere answers a count over the materialized view — the standing
// view-count query when no condition is given. It is served immediately
// (interleaving with ingestion) rather than queued behind the mailbox.
func (v *View) CountWhere(conds ...incshrink.Where) (n int, qetSeconds float64, err error) {
	start := obs.Now()
	v.mu.Lock()
	n, qet, err := v.db.CountWhere(conds...)
	v.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	v.queries.Add(1)
	v.reg.met.observeQuery(start)
	return n, qet, nil
}

// Stats snapshots the view.
func (v *View) Stats() StatusJSON {
	v.mu.Lock()
	db := v.db.Stats()
	v.mu.Unlock()
	return StatusJSON{
		Name:  v.name,
		Stats: db,
		Serve: ServeStats{
			Advances:         v.advances.Load(),
			Rejected:         v.rejected.Load(),
			Failed:           v.failed.Load(),
			Batches:          v.batches.Load(),
			Queries:          v.queries.Load(),
			RowsLeft:         v.rowsL.Load(),
			RowsRight:        v.rowsR.Load(),
			Checkpoints:      v.checkpoints.Load(),
			CheckpointErrors: v.cpErrors.Load(),
		},
	}
}
