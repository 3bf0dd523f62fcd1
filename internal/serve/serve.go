// Package serve is the multi-tenant serving subsystem: a registry hosting
// many named IncShrink views (one incshrink.DB per tenant/view, each with
// its own ViewDef/Options) behind a concurrency model the bare library does
// not provide. A bare incshrink.DB is confined to a single goroutine; the
// serve layer makes many of them jointly usable from arbitrary goroutines
// with one lock per view, and starts no goroutine of its own:
//
//   - Every operation on a view runs on its caller's goroutine under the
//     view's mutex. An upload is applied as one incshrink.DB.AdvanceBatch, so
//     each view's steps stay strictly serialized (the paper's "owners upload
//     in time-step order" invariant) while distinct views ingest in parallel.
//     Batching is the owner's lever: a client that wants the paper's Figure 4
//     amortization sends several steps in one AdvanceBatch request.
//   - Admission is a per-view count of writes (uploads and checkpoints)
//     waiting for or holding the mutex: a write that would make it exceed
//     maxWriters fails at once with ErrBusy, which the HTTP front end maps to
//     503 + Retry-After: 1.
//   - The registry is one map under one RWMutex: Get is a read lock, and
//     Create and Drop hold the write lock for a map insert or delete only —
//     opening a DB and closing a view both run outside it.
//   - Reads (CountWhere, Stats) take the same mutex and interleave with
//     uploads in lock order. Note that "reads" are writes at the DB layer: a
//     simulated secure query charges the view's cost meter.
//
// Determinism is preserved per view: because the mutex serializes each
// view's steps and AdvanceBatch is byte-identical to sequential Advance
// calls, a view ingesting a given step sequence through the registry —
// under any amount of cross-view concurrency — produces counts
// byte-identical to a sequential single-view run at the same seed.
//
// Lifecycle is race-free by construction and pinned by race-detector tests.
// Drop and Close close a view by setting its closed flag under the view
// mutex, and a write checks that flag under the same mutex before it
// applies: once they return, no write can apply or be acknowledged, and
// every write that returned success applied before them — Close is a
// barrier for acknowledged uploads. A view registered concurrently with
// Close is either closed by Close or rejected with ErrClosed (the
// check-and-register is atomic under the registry lock Close's sweep takes
// after setting the registry's closed flag), and Drop keeps the name
// reserved until the view is closed and its checkpoint file is gone, so
// neither a racing checkpoint nor an immediate re-Create can resurrect a
// dropped tenant's state.
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
	// maxWriters bounds the writes (uploads and checkpoints) waiting for or
	// holding one view's mutex; a write beyond it fails with ErrBusy.
	maxWriters = 16
	// maxBatchSteps caps the steps one client AdvanceBatch request may carry:
	// a batch is applied atomically under the view mutex, so an unbounded one
	// could starve the view's readers.
	maxBatchSteps = 512
)

// Sentinel errors of the serving layer.
var (
	// ErrBusy reports a view with maxWriters writes already in flight: the
	// upload or checkpoint was not admitted and may be retried.
	ErrBusy = errors.New("serve: view has too many writes in flight, request not admitted")
	// ErrNotFound reports an unknown view name.
	ErrNotFound = errors.New("serve: view not found")
	// ErrExists reports a Create against a name already registered
	// (including one whose Drop has not finished) or held by a checkpoint
	// file RestoreAll did not load.
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
	// CheckpointEvery checkpoints a view after every N applied upload steps,
	// in the write that crosses the boundary (under the view mutex, so a
	// checkpoint never tears a step).
	// 0 disables periodic checkpointing; explicit checkpoints and
	// checkpoint-on-shutdown still work whenever DataDir is set.
	CheckpointEvery int
	// Metrics, when non-nil, turns on instrumentation: the serving
	// families (queue depth, latencies, checkpoint cost) are registered on
	// it, and every hosted view's engine gets core/mpc instruments attached.
	// Instruments observe but never perturb: per-view counts and snapshots
	// are byte-identical with or without a Metrics registry (pinned by test).
	Metrics *obs.Registry
	// Traces, when non-nil, records request spans (HTTP dispatch, the wait
	// for the view lock, apply) into the ring, dumpable via /debug/traces.
	Traces *obs.TraceLog
	// Logger, when non-nil, emits structured access logs (with trace IDs)
	// from the HTTP handler.
	Logger *slog.Logger
}

// Registry hosts named views. All methods are safe for concurrent use.
type Registry struct {
	cfg Config

	closed atomic.Bool // no new views once set
	mu     sync.RWMutex
	views  map[string]*View // guarded by mu

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

// Create opens a new view under the given name. A name that is registered
// (or mid-Drop), or whose checkpoint file is in the data directory with no
// view restored from it, is refused with ErrExists.
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
	// A checkpoint file no registered view owns is one RestoreAll could not
	// load (a newer format, damage): it reserves its name until an operator
	// moves it away, so a new view's first checkpoint never renames over it.
	if r.cfg.DataDir != "" {
		if _, err := os.Lstat(r.snapPath(name)); err == nil {
			return nil, fmt.Errorf("%w: %q has a checkpoint file no view restored", ErrExists, name)
		}
	}
	db, err := incshrink.Open(def, opts)
	if err != nil {
		return nil, err
	}
	return r.register(name, db)
}

// register installs a ready DB under name — the shared tail of Create and
// RestoreAll. The closed check and the map insert are atomic under the
// registry lock: Close sets the closed flag *before* sweeping the map under
// the same lock, so a concurrent register either observes the flag (and
// rejects) or lands in the map before the sweep (and is closed by Close).
// No view can escape both.
func (r *Registry) register(name string, db *incshrink.DB) (*View, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return nil, ErrClosed
	}
	if _, ok := r.views[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	v := &View{name: name, reg: r, db: db}
	if r.ins != nil {
		// Attach the engine instruments before the first step can apply, so
		// the view's whole history is observed.
		db.Instrument(r.ins.ForView(name))
	}
	r.views[name] = v
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

// Drop unregisters the named view: it closes the view — writes that take
// its mutex first finish, and every other write fails with ErrClosed — then
// deletes the view's checkpoint file: DELETE means the tenant is gone, not
// "gone until the next restart resurrects it". The name stays reserved
// (Create returns ErrExists, Get returns ErrNotFound) until the close and
// the file removal have both finished, so a checkpoint already encoded is
// strictly ordered before the delete and a racing re-Create of the same name
// can never have its fresh checkpoint eaten by the old tenant's teardown.
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	v, ok := r.views[name]
	if !ok || v.dropping {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	v.dropping = true
	r.mu.Unlock()

	v.close()
	var rmErr error
	if r.cfg.DataDir != "" {
		// Marking the view dropped under fileMu closes the last write path:
		// a checkpoint encoded before the close waits for fileMu and then
		// finds dropped set, and CheckpointAll bypasses the closed flag.
		// Once dropped is set and the file removed, no code path recreates it.
		v.fileMu.Lock()
		v.dropped = true
		err := os.Remove(r.snapPath(name))
		if err == nil {
			err = r.syncDir()
		}
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

// Close shuts the registry down: no new views are admitted, and every view
// is closed under its mutex — writes that take it first finish, and every
// other write fails with ErrClosed. It is a barrier for acknowledged
// uploads: every upload that returned success applied before Close
// returned, so CheckpointAll after Close captures exactly what was
// acknowledged. Reads keep working. The context is not consulted, since
// Close waits only for writes already under way, and Close returns nil.
func (r *Registry) Close(context.Context) error {
	r.closed.Store(true)
	// Sweep the map under the lock: any register that won its race against
	// the flag is in the map by now (the insert and the flag check are atomic
	// under the same lock), so no view escapes the close. Views mid-Drop are
	// included (close is idempotent).
	r.mu.RLock()
	views := make([]*View, 0, len(r.views))
	for _, v := range r.views { //lint:allow maporder each view is closed independently; order has no observable effect
		views = append(views, v)
	}
	r.mu.RUnlock()
	for _, v := range views {
		v.close()
	}
	return nil
}

// ServeStats are the serving-layer counters of one view, distinct from the
// protocol-level incshrink.Stats underneath.
type ServeStats struct {
	// Advances counts applied upload steps; Rejected counts steps refused
	// at admission (maxWriters writes in flight); Failed counts requests
	// the DB rejected (for example block-size violations).
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

// View is one hosted tenant: a single incshrink.DB behind one mutex. All
// methods are safe for concurrent use.
type View struct {
	name string
	reg  *Registry

	// dropping marks a view mid-Drop; guarded by the registry's mutex. The
	// name stays in the map (reserving it against re-Create) until the close
	// and checkpoint removal finish.
	dropping bool

	// writers counts the writes waiting for or holding mu: admission.
	writers atomic.Int64

	// mu guards db — the bare DB is single-goroutine (see the incshrink
	// package docs) — and closed, which Drop and Registry.Close set and a
	// write checks before it applies. Writes and reads hold it per request.
	mu     sync.Mutex
	db     *incshrink.DB
	closed bool

	advances    atomic.Int64
	rejected    atomic.Int64
	failed      atomic.Int64
	batches     atomic.Int64
	queries     atomic.Int64
	rowsL       atomic.Int64
	rowsR       atomic.Int64
	checkpoints atomic.Int64
	cpErrors    atomic.Int64

	// fileMu serializes checkpoint-file writes (and guards dropped). A
	// checkpointer takes it before releasing mu, so files are written in
	// encode order and an older snapshot never renames over a newer one;
	// and a Drop is terminal: once dropped is set and the file removed, no
	// code path recreates it.
	fileMu  sync.Mutex
	dropped bool
}

// close makes the view refuse every later write; idempotent.
func (v *View) close() {
	v.mu.Lock()
	v.closed = true
	v.mu.Unlock()
}

// enter admits one write and takes the view mutex for it, recording the
// wait as the request's ingest.wait span. It fails at once with ErrBusy when
// maxWriters writes are already in flight on the view, and with ErrClosed
// once the view is closed. On success the caller holds mu and must call
// v.writers.Add(-1) when its write returns.
func (v *View) enter(trace obs.TraceID) error {
	for {
		n := v.writers.Load()
		if n >= maxWriters {
			return ErrBusy
		}
		if v.writers.CompareAndSwap(n, n+1) {
			break
		}
	}
	start := obs.Now() // feeds the ingest.wait span, never view state
	v.mu.Lock()
	if trace != 0 {
		v.reg.span(trace, "ingest.wait", start, obs.Since(start), "")
	}
	if v.closed {
		v.mu.Unlock()
		v.writers.Add(-1)
		return ErrClosed
	}
	return nil
}

// advance applies a run of steps under the view mutex — one
// incshrink.DB.AdvanceBatch, or with batch unset one DB.Advance, whose error
// names no batch — and returns the view's logical time after its last step:
// the shared body of Advance and AdvanceBatch. One clock reading times the
// apply for its span and its histogram.
func (v *View) advance(ctx context.Context, steps []incshrink.StepRows, batch bool) (int, error) {
	if len(steps) == 0 {
		return 0, fmt.Errorf("%w: empty batch", incshrink.ErrInvalidArgument)
	}
	if len(steps) > maxBatchSteps {
		return 0, fmt.Errorf("%w: batch of %d steps exceeds the %d-step limit",
			incshrink.ErrInvalidArgument, len(steps), maxBatchSteps)
	}
	trace, _ := obs.TraceFrom(ctx)
	if err := v.enter(trace); err != nil {
		if errors.Is(err, ErrBusy) {
			v.rejected.Add(int64(len(steps)))
			if m := v.reg.met; m != nil {
				m.rejected.Add(float64(len(steps)))
			}
		}
		return 0, err
	}
	defer v.writers.Add(-1)
	start := obs.Now()
	var err error
	if batch {
		err = v.db.AdvanceBatch(steps)
	} else {
		err = v.db.Advance(steps[0].Left, steps[0].Right)
	}
	d := obs.Since(start)
	step := v.db.Now()
	if trace != 0 {
		v.reg.span(trace, "ingest.apply", start, d, fmt.Sprintf("steps=%d", len(steps)))
	}
	if err != nil {
		v.mu.Unlock()
		v.failed.Add(1)
		if m := v.reg.met; m != nil {
			m.failed.Inc()
		}
		return step, err
	}
	n := int64(len(steps))
	v.batches.Add(1)
	adv := v.advances.Add(n)
	for _, s := range steps {
		v.rowsL.Add(int64(len(s.Left)))
		v.rowsR.Add(int64(len(s.Right)))
	}
	if m := v.reg.met; m != nil {
		m.batchSteps.Observe(float64(n))
		m.advances.Add(float64(n))
		m.advanceSeconds.ObserveDuration(d)
	}

	// Periodic durability: checkpoint when the applied-step counter crosses
	// a CheckpointEvery boundary, encoding before the mutex is released, so
	// the snapshot is exactly the post-request state. Failures are counted
	// (and visible in stats) but do not fail the upload, which has applied.
	if every := int64(v.reg.cfg.CheckpointEvery); every > 0 && v.reg.cfg.DataDir != "" && adv/every != (adv-n)/every {
		v.checkpointAndUnlock()
	} else {
		v.mu.Unlock()
	}
	return step, nil
}

// Advance applies one time step of uploads on the caller's goroutine and
// returns the view's logical time after the step. A view with maxWriters
// writes in flight fails fast with ErrBusy (the caller should retry or shed
// load); a dropped view or closed registry fails with ErrClosed, a rejected
// step as incshrink.DB.Advance does. ctx carries the request's trace ID; an
// admitted write is not cancellable and runs to completion.
func (v *View) Advance(ctx context.Context, left, right []incshrink.Row) (int, error) {
	return v.advance(ctx, []incshrink.StepRows{{Left: left, Right: right}}, false)
}

// AdvanceBatch applies a contiguous run of time steps as one all-or-nothing
// unit, returning the view's logical time after the last step. The batch
// inherits incshrink.DB.AdvanceBatch's contract: either every step applies,
// in order, or none do (the error names the offending step). The batch is
// one write for admission, and batches above 512 steps are rejected
// outright (they would hold the view mutex for their whole atomic
// application).
func (v *View) AdvanceBatch(ctx context.Context, steps []incshrink.StepRows) (int, error) {
	return v.advance(ctx, steps, true)
}

// CountWhere answers a count over the materialized view — the standing
// view-count query when no condition is given — under the view mutex,
// interleaving with uploads.
func (v *View) CountWhere(conds ...incshrink.Where) (n int, qetSeconds float64, err error) {
	start := obs.Now()
	v.mu.Lock()
	n, qet, err := v.db.CountWhere(conds...)
	v.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	v.queries.Add(1)
	if m := v.reg.met; m != nil {
		m.querySeconds.ObserveDuration(obs.Since(start))
	}
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
