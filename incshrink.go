// Package incshrink is a Go implementation of IncShrink (Wang, Bater, Nayak,
// Machanavajjhala — SIGMOD 2022): a secure outsourced growing database that
// maintains a materialized view with incremental MPC while guaranteeing that
// the update-pattern leakage observed by the (simulated) untrusted servers
// satisfies differential privacy.
//
// The public API models the paper's deployment: two growing streams (for
// example sales and returns, or allegations and a public award feed) whose
// temporal equi-join is materialized as a view; a standing count query is
// answered from the view alone. Advance the database one time step at a
// time with the records each owner received; query whenever you like:
//
//	db, err := incshrink.Open(incshrink.ViewDef{Within: 10},
//	    incshrink.Options{Epsilon: 1.5})
//	...
//	for each day {
//	    db.Advance(salesRows, returnRows)
//	    n, qet, _ := db.Count()
//	}
//
// The heavy lifting — the Transform and Shrink MPC protocols, truncated
// oblivious joins, contribution budgets, secure cache, joint DP noise — is
// in the internal packages; see DESIGN.md for the map.
package incshrink

import (
	"errors"
	"fmt"

	"incshrink/internal/core"
	"incshrink/internal/dp"
	"incshrink/internal/oblivious"
	"incshrink/internal/query"
	"incshrink/internal/table"
	"incshrink/internal/workload"
)

// ErrInvalidArgument marks errors caused by invalid caller input — a
// malformed ViewDef or Options, an oversized or malformed upload, a bad
// query. Callers (notably the HTTP layer) use errors.Is to distinguish
// client mistakes (400) from internal failures (500).
var ErrInvalidArgument = errors.New("incshrink: invalid argument")

// badArg wraps a formatted message with ErrInvalidArgument.
func badArg(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidArgument, fmt.Sprintf(format, args...))
}

// Row is one relational tuple: {join key, event time, extra attributes...}.
// Only the first two attributes participate in the view definition; any
// extra attributes are ignored by the engine (the materialized view carries
// exactly the four columns of the join schema). The join key must be
// non-negative: the engine pads every upload to its public block size with
// records keyed from the negative half of the domain, so a negative client
// key could join padding. Advance rejects one.
type Row = []int64

// Protocol selects the Shrink synchronization strategy.
type Protocol int

// The two DP view-update protocols of the paper.
const (
	// SDPTimer updates the view every T time steps (Algorithm 2).
	SDPTimer Protocol = iota
	// SDPANT updates the view when the (noisy) number of pending entries
	// crosses a (noisy) threshold (Algorithm 3).
	SDPANT
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == SDPANT {
		return "sDPANT"
	}
	return "sDPTimer"
}

// ViewDef declares the materialized view: the temporal equi-join of the left
// and right streams on their first attribute, keeping pairs whose right
// event happened within Within steps after the left event.
type ViewDef struct {
	// Within is the temporal window of the join predicate, in time steps.
	Within int64
	// Omega is the truncation bound: each record generates at most Omega
	// view entries per Transform invocation. Default 1.
	Omega int
	// Budget is the total contribution budget b per record; once consumed,
	// the record is retired from view generation. Default 10*Omega.
	Budget int
	// RightPublic marks the right stream as public data (no padding, no
	// contribution budget), like the paper's CPDB Award relation.
	RightPublic bool
}

// Options tunes the deployment.
type Options struct {
	// Epsilon is the DP parameter for the update-pattern leakage.
	// Default 1.5 (the paper's default).
	Epsilon float64
	// Protocol selects sDPTimer (default) or sDPANT.
	Protocol Protocol
	// T is the sDPTimer interval in steps (default 10).
	T int
	// Theta is the sDPANT threshold (default 30).
	Theta float64
	// UploadEvery is the owners' upload period in steps (default 1): step t
	// is an upload iff (t+1) % UploadEvery == 0, the only steps at which a
	// padded stream may send rows. A public relation may send at any step.
	UploadEvery int
	// MaxLeft and MaxRight are the fixed upload block sizes; uploads are
	// padded to (and must not exceed) these. Defaults 32 and 32.
	MaxLeft, MaxRight int
	// Seed drives all protocol randomness. Zero (the default) takes a fresh
	// seed from the operating system's cryptographic generator at Open, so
	// views that name no seed do not share noise; the DB records it, and a
	// snapshot carries it to the restore, which never draws another. It is
	// never reported (Stats, the HTTP API). The streams are math/rand's,
	// which reduces a seed modulo 2^31-1, so N unseeded views share a stream
	// with probability about N²/2^31 (ROADMAP item 26's ChaCha8 key removes
	// that).
	Seed int64
	// MergeWindows selects segment boundaries inside AdvanceBatch, nothing
	// else. Off (the default), every step's upload gets its own Transform and
	// AdvanceBatch is byte-identical to step-by-step Advance. On, the uploads
	// between two Shrink observation points share one larger Transform — one
	// Batcher network over the merged window instead of one per step, a
	// superlinear saving. Counter values at observation points, DP noise
	// draws and view counts still match step-by-step execution on
	// single-contribution streams, but the simulated cost (which is the
	// point) and the omega truncation granularity (per segment, not per
	// upload) differ, so merged runs are not byte-identical to sequential
	// ones. See DESIGN.md §12.
	MergeWindows bool
}

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 1.5
	}
	if o.T == 0 {
		o.T = 10
	}
	if o.Theta == 0 {
		o.Theta = 30
	}
	if o.UploadEvery == 0 {
		o.UploadEvery = 1
	}
	if o.MaxLeft == 0 {
		o.MaxLeft = 32
	}
	if o.MaxRight == 0 {
		o.MaxRight = 32
	}
	if o.Seed == 0 {
		o.Seed = dp.FreshSeed()
	}
	return o
}

func (v ViewDef) withDefaults() ViewDef {
	if v.Omega == 0 {
		v.Omega = 1
	}
	if v.Budget == 0 {
		v.Budget = 10 * v.Omega
	}
	return v
}

// DB is a secure outsourced growing database with one materialized view.
//
// A DB is not safe for concurrent use: every method — including the
// queries, which charge the simulated MPC cost meter — mutates state, so a
// bare DB must be confined to a single goroutine. For concurrent access
// and multi-view hosting, route calls through the serving subsystem
// (internal/serve, exposed by cmd/incshrink-server), which serializes
// each view's ingestion and queries under one lock per view.
type DB struct {
	fw   *core.Framework
	def  ViewDef
	opts Options
}

// Open creates a database for the given view definition. Definitions and
// options that are malformed — negative bounds, unknown protocols, public
// sizes past the engine's cap — are rejected with an error wrapping
// ErrInvalidArgument. Zero means the default; whatever else a hostile HTTP
// create body sends reaches core.Config.Validate, which owns the checks.
func Open(def ViewDef, opts Options) (*DB, error) {
	if opts.Protocol != SDPTimer && opts.Protocol != SDPANT {
		return nil, badArg("unknown protocol %d", int(opts.Protocol))
	}
	def = def.withDefaults()
	opts = opts.withDefaults()
	cfg := core.Config{Epsilon: opts.Epsilon, Omega: def.Omega, Budget: def.Budget, T: opts.T, Theta: opts.Theta,
		MergeWindows: opts.MergeWindows, Seed: opts.Seed,
		Shape: core.Shape{UploadEvery: opts.UploadEvery, Within: def.Within, MaxLeft: opts.MaxLeft,
			MaxRight: opts.MaxRight, RightPublic: def.RightPublic}}
	var fw *core.Framework
	var err error
	if opts.Protocol == SDPANT {
		fw, err = core.NewANTEngine(cfg)
	} else {
		fw, err = core.NewTimerEngine(cfg)
	}
	if err != nil {
		// Everything the engine is built from derives from the caller's
		// def/opts, so a rejection is a caller mistake (e.g. Budget below
		// Omega, or a window and block sizes past the engine's public cap).
		return nil, fmt.Errorf("%w: %v", ErrInvalidArgument, err)
	}
	return &DB{fw: fw, def: def, opts: opts}, nil
}

// Now returns the current logical time step: the step the next Advance
// ingests.
func (db *DB) Now() int { return db.fw.Now() }

// Instrument attaches a view's observability instruments (phase timing
// histograms, window gauges, predicted-vs-measured cost accounting)
// to the engine; nil detaches. Instruments observe but never perturb: an
// instrumented DB produces byte-identical counts and snapshots to a bare
// one, a property pinned by test.
func (db *DB) Instrument(ins *core.Instruments) { db.fw.SetInstruments(ins) }

// Advance moves the database one time step forward, ingesting the records
// each owner sent this step. A padded stream sends rows only at an upload
// (Options.UploadEvery), at most its block size; a public one at any step.
// Every row needs at least {key, time} with a non-negative key (see Row).
// Rows are copied before Advance returns; the caller may reuse or overwrite
// them. A rejected Advance (wrapping ErrInvalidArgument, naming the step and
// the stream) mutates nothing: the step does not happen, and a corrected
// retry continues exactly where a never-failed run would be — the
// byte-identical-replay contract the serving layer and snapshot/restore
// depend on.
func (db *DB) Advance(left, right []Row) error {
	// Validate both streams completely before mutating any state.
	if err := db.validateStep(db.Now(), left, right); err != nil {
		return err
	}
	db.apply([]StepRows{{Left: left, Right: right}})
	return nil
}

// StepRows is one time step's uploads, the unit of AdvanceBatch: the records
// each owner received during that step, in the same {left, right} shape
// Advance takes.
type StepRows struct {
	Left  []Row `json:"left"`
	Right []Row `json:"right"`
}

// AdvanceBatch moves the database len(steps) time steps forward in one
// call, ingesting steps[i] at logical time Now()+i. As with Advance, rows
// are copied before the call returns and may be reused by the caller. Unless
// Options.MergeWindows is set, it is exactly equivalent to calling Advance
// once per element in order — same counts, same simulated costs and DP
// randomness, byte-identical snapshots: both are the same
// engine loop, and batching never changes semantics; it buys
// wall clock in the layers that pay a fixed cost per call — one
// validation pass, and in the serving stack one admission, one HTTP
// round trip and one lock/worker-slot acquisition per batch instead of
// per step.
//
// Validation is all-or-nothing: every step of the batch is held to Advance's
// rules at its own step before any state mutates. If any step is rejected
// (error wrapping ErrInvalidArgument, naming the offending step index, its
// step and the stream), the batch does not happen at all — no step is applied
// and the logical clock does not move — so a corrected retry continues
// exactly where a never-failed run would have. An empty batch is rejected the
// same way rather than silently succeeding.
func (db *DB) AdvanceBatch(steps []StepRows) error {
	if len(steps) == 0 {
		return badArg("empty batch: AdvanceBatch needs at least one step")
	}
	for i, s := range steps {
		if err := db.validateStep(db.Now()+i, s.Left, s.Right); err != nil {
			return fmt.Errorf("batch step %d of %d: %w", i, len(steps), err)
		}
	}
	db.apply(steps)
	return nil
}

// apply ingests pre-validated steps — nothing can fail from here on. All of
// the call's records share one arena sized to the exact total, so it costs two
// allocations regardless of len(steps) — the capacity is exact, append never
// reallocates, and the per-step subslices stay valid.
func (db *DB) apply(steps []StepRows) {
	total := 0
	for _, s := range steps {
		total += len(s.Left) + len(s.Right)
	}
	arena := make([]oblivious.Record, 0, total)
	wsteps := make([]workload.Step, len(steps))
	for i, s := range steps {
		wsteps[i] = workload.Step{T: db.Now() + i}
		lo := len(arena)
		arena = appendRecords(arena, s.Left)
		wsteps[i].Left = arena[lo:len(arena):len(arena)]
		lo = len(arena)
		arena = appendRecords(arena, s.Right)
		wsteps[i].Right = arena[lo:len(arena):len(arena)]
	}
	db.fw.StepBatch(wsteps)
}

// validateStep checks step t's uploads against the owners' schedule
// (core.Framework.CheckStep), the row arity and the key domain without
// mutating anything — the shared admission gate of Advance and AdvanceBatch.
func (db *DB) validateStep(t int, left, right []Row) error {
	if err := db.fw.CheckStep(t, [2]int{len(left), len(right)}); err != nil {
		return badArg("%v", err)
	}
	if err := validateRows("left", left); err != nil {
		return err
	}
	return validateRows("right", right)
}

// validateRows checks every row of one stream: it carries {key, time}, and
// its key is outside the negative half of the domain, which the engine's
// padding records are keyed from.
func validateRows(stream string, rows []Row) error {
	for i, r := range rows {
		if len(r) < workload.StreamArity {
			return badArg("%s row %d needs at least {key, time}, got %d attributes", stream, i, len(r))
		}
		if r[workload.ColKey] < 0 {
			return badArg("%s row %d has negative key %d; keys must be non-negative", stream, i, r[workload.ColKey])
		}
	}
	return nil
}

// appendRecords appends pre-validated rows to the caller's arena as engine
// records.
func appendRecords(dst []oblivious.Record, rows []Row) []oblivious.Record {
	for _, r := range rows {
		// The engine's fixed-arity data plane (and the view schema the
		// queries resolve against) carries exactly {key, time} per stream;
		// extra attributes do not participate in the view definition and are
		// dropped here.
		dst = append(dst, oblivious.Record{Row: table.Row(r[:workload.StreamArity])})
	}
	return dst
}

// Count answers the standing view count query from the materialized view,
// returning the answer and the simulated secure query execution time in
// seconds.
func (db *DB) Count() (n int, qetSeconds float64) {
	return db.fw.Query()
}

// Cmp is a comparison operator for CountWhere conditions.
type Cmp int

// The supported comparison operators.
const (
	Eq Cmp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// Where is one filter condition over the view's columns. The materialized
// view exposes four columns: "left.key", "left.time", "right.key",
// "right.time". When Minus is non-empty the left operand is Col - Minus
// (the paper's Q1 shape "right.time - left.time <= 10").
type Where struct {
	Col   string
	Minus string
	Cmp   Cmp
	Val   int64
}

// viewSchema is the public column layout of API views.
var viewSchema = table.MustSchema("view", "left.key", "left.time", "right.key", "right.time")

// maxConds is the most conditions one CountWhere accepts: a two-sided range
// on each of the view's four columns.
const maxConds = 8

// CountWhere answers a filtered count over the materialized view: the
// logical query "COUNT(*) over the view definition's join WHERE <conds>" is
// rewritten onto the view — each condition lowered to a range test of the
// scan kernel — and executed with one oblivious scan. Up to eight
// conditions compile on the stack, so no accepted query allocates. More
// than eight (refused before any lowering or scan), a condition naming a
// column the view does not carry, or an operator that does not exist is
// rejected with an error wrapping ErrInvalidArgument.
func (db *DB) CountWhere(conds ...Where) (n int, qetSeconds float64, err error) {
	if len(conds) > maxConds {
		return 0, 0, badArg("%d conditions in one count, at most %d", len(conds), maxConds)
	}
	var buf [maxConds]oblivious.ScanCond
	prog := buf[:0]
	for _, w := range conds {
		sc, err := query.Lower(query.Cond{Col: w.Col, DiffCol: w.Minus, Op: query.Op(w.Cmp), Val: w.Val}, viewSchema)
		if err != nil {
			return 0, 0, fmt.Errorf("%w: %v", ErrInvalidArgument, err)
		}
		prog = append(prog, sc)
	}
	n, qet := db.fw.QueryWhere(prog)
	return n, qet, nil
}

// Stats is a snapshot of the database's state and cost counters. The JSON
// form is what incshrink-server returns from its stats endpoint.
type Stats struct {
	// Step is the current logical time.
	Step int `json:"step"`
	// ViewEntries and ViewSlots are the real tuples and total (padded)
	// slots in the materialized view.
	ViewEntries int `json:"view_entries"`
	ViewSlots   int `json:"view_slots"`
	// ViewBytes is the view's storage footprint.
	ViewBytes int64 `json:"view_bytes"`
	// CacheSlots is the current secure cache length.
	CacheSlots int `json:"cache_slots"`
	// Updates counts view synchronizations so far.
	Updates int `json:"updates"`
	// TransformSeconds, ShrinkSeconds, QuerySeconds are cumulative
	// simulated MPC costs.
	TransformSeconds float64 `json:"transform_seconds"`
	ShrinkSeconds    float64 `json:"shrink_seconds"`
	QuerySeconds     float64 `json:"query_seconds"`
	// Epsilon is the DP guarantee on the update-pattern leakage.
	Epsilon float64 `json:"epsilon"`
}

// Stats returns the current snapshot.
func (db *DB) Stats() Stats {
	m := db.fw.Metrics()
	return Stats{
		Step:             db.Now(),
		ViewEntries:      m.ViewReal,
		ViewSlots:        m.ViewLen,
		ViewBytes:        m.ViewBytes,
		CacheSlots:       m.CacheLen,
		Updates:          m.Updates,
		TransformSeconds: m.TransformSecs,
		ShrinkSeconds:    m.ShrinkSecs,
		QuerySeconds:     m.QuerySecs,
		Epsilon:          db.opts.Epsilon,
	}
}
