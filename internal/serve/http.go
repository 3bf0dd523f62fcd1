package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"incshrink"
)

// The HTTP JSON API over a Registry. Routes (all JSON in and out):
//
//	GET    /healthz                        readiness and write pressure (503 when degraded)
//	GET    /v1/views                       list view names
//	POST   /v1/views                       create a view (CreateRequest)
//	DELETE /v1/views/{name}                drop a view
//	POST   /v1/views/{name}/advance        ingest one time step (AdvanceRequest)
//	POST   /v1/views/{name}/advance-batch  ingest several contiguous steps
//	                                       atomically (AdvanceBatchRequest)
//	GET    /v1/views/{name}/count          standing view-count query
//	POST   /v1/views/{name}/count          filtered count (CountRequest, at
//	                                       most eight conditions)
//	GET    /v1/views/{name}/stats          protocol + serving stats
//	POST   /v1/views/{name}/snapshot       checkpoint the view to the data dir
//
// Request bodies are decoded strictly: unknown fields and trailing data
// are 400s, not silently ignored.
//
// Every write (advance, advance-batch, snapshot) runs to completion on the
// handler's goroutine under the view's lock, whether or not the client
// stays connected.
//
// Error mapping: unknown view -> 404, duplicate create (or a name held by a
// checkpoint file no view restored) -> 409, a view with 16 writes in flight
// (ErrBusy) -> 503 with Retry-After: 1, a dropped view or closed registry
// (ErrClosed) -> 503, malformed input or a DB-rejected upload/query -> 400
// (an upload past a block size, or a padded stream's rows at a step that is
// not an upload of the view's upload_every schedule), snapshot without a
// data directory -> 409, anything unrecognized -> 500.

// CreateRequest declares a new view.
type CreateRequest struct {
	Name string `json:"name"`
	// View definition.
	Within      int64 `json:"within"`
	Omega       int   `json:"omega,omitempty"`
	Budget      int   `json:"budget,omitempty"`
	RightPublic bool  `json:"right_public,omitempty"`
	// Deployment options (zero values take the library defaults).
	Epsilon     float64 `json:"epsilon,omitempty"`
	Protocol    string  `json:"protocol,omitempty"` // "sDPTimer" (default) or "sDPANT"
	T           int     `json:"t,omitempty"`
	Theta       float64 `json:"theta,omitempty"`
	UploadEvery int     `json:"upload_every,omitempty"`
	MaxLeft     int     `json:"max_left,omitempty"`
	MaxRight    int     `json:"max_right,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	// MergeWindows enables window-merged batched ingestion for this view
	// (incshrink.Options.MergeWindows): cheaper batches, same counts on
	// single-contribution streams, but not byte-identical replay against
	// step-by-step execution.
	MergeWindows bool `json:"merge_windows,omitempty"`
}

// AdvanceRequest carries one time step of uploads; each row is
// {join key, event time, extra attributes...} (attributes beyond the first
// two are ignored by the engine). A padded stream (left, and right unless
// the view is right_public) may carry rows only at an upload step t, where
// (t+1) % upload_every == 0, and at most its block size; the public relation
// may carry rows at any step (incshrink.DB.Advance).
type AdvanceRequest struct {
	Left  []incshrink.Row `json:"left"`
	Right []incshrink.Row `json:"right"`
}

// AdvanceResponse reports the view's logical time after the step.
type AdvanceResponse struct {
	Step int `json:"step"`
}

// AdvanceBatchRequest carries a contiguous run of time steps, applied
// all-or-nothing: steps[i] ingests at the view's logical time Now()+i, and
// if any step is invalid the whole batch is rejected with nothing applied
// (the incshrink.DB.AdvanceBatch contract). Batches above 512 steps are
// rejected with 400 — one atomic batch holds the view's write lock for its
// whole application.
type AdvanceBatchRequest struct {
	Steps []incshrink.StepRows `json:"steps"`
}

// AdvanceBatchResponse reports the view's logical time after the batch and
// how many steps it applied.
type AdvanceBatchResponse struct {
	Step  int `json:"step"`
	Steps int `json:"steps"`
}

// WhereJSON is one filter condition of a CountRequest. Op is one of
// "=" "!=" "<" "<=" ">" ">="; Minus, when set, makes the left operand
// Col - Minus (the paper's Q1 shape).
type WhereJSON struct {
	Col   string `json:"col"`
	Minus string `json:"minus,omitempty"`
	Op    string `json:"op"`
	Val   int64  `json:"val"`
}

// CountRequest is a filtered count over the materialized view: the
// conjunction of at most eight conditions, a two-sided range on each of the
// view's four columns. A ninth is rejected with 400 before the view is
// scanned, so one request cannot hold the view's lock for longer than an
// eight-condition scan.
type CountRequest struct {
	Where []WhereJSON `json:"where"`
}

// CountResponse is a count query answer.
type CountResponse struct {
	Count      int     `json:"count"`
	QETSeconds float64 `json:"qet_seconds"`
}

// SnapshotResponse reports a written checkpoint.
type SnapshotResponse struct {
	Path string `json:"path"`
	Step int    `json:"step"`
}

// StatusJSON is a full snapshot of one view — identity, protocol stats and
// serving stats — as View.Stats returns it and the stats route serves it.
type StatusJSON struct {
	Name  string          `json:"name"`
	Stats incshrink.Stats `json:"stats"`
	Serve ServeStats      `json:"serve"`
}

// maxBodyBytes bounds every request body before JSON decoding: a legal
// upload is at most one block per stream (tens of rows), so 1 MiB is
// generous, and an unbounded body must not be buffered into memory just to
// fail the block-size check afterwards.
const maxBodyBytes = 1 << 20

// Connection timeouts of every http.Server this module runs (NewHTTPServer),
// sized from the largest legal request and the slowest admitted write, so a
// client that stalls mid-request holds its connection and goroutine for a
// bounded time instead of forever:
//   - a request's headers are a few hundred bytes, and readHeaderTimeout
//     is ample for them on any live connection;
//   - readTimeout adds maxBodyBytes at minClientRate;
//   - writeTimeout runs from the end of the headers to the end of the
//     response, so it adds, to readTimeout, maxWriters writes each given
//     slowWrite: the slowest admitted write is a 512-step batch plus its
//     checkpoint, ≈ 22 ms at the default 32-row blocks on a 2-core x86
//     server, and slowWrite leaves about 90× that for larger blocks and
//     slower disks. It is also above the 30 s of a default /debug/pprof/profile;
//   - idleTimeout closes a keep-alive connection no request reuses.
const (
	readHeaderTimeout = 5 * time.Second
	minClientRate     = 64 << 10 // bytes per second
	readTimeout       = readHeaderTimeout + maxBodyBytes/minClientRate*time.Second
	slowWrite         = 2 * time.Second
	writeTimeout      = readTimeout + maxWriters*slowWrite
	idleTimeout       = 60 * time.Second
)

// NewHTTPServer returns an http.Server for h on addr with the connection
// timeouts above set.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// decodeJSON decodes a size-capped request body into v, strictly: unknown
// fields are rejected (a typo like "epsilom" must not silently select the
// default), and so is anything after the first JSON value (trailing garbage
// means the client composed the request wrong — acknowledging it as
// understood would be lying).
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("unexpected data after JSON body")
	}
	return nil
}

// ParseCmp maps an HTTP operator token to the library's comparison
// operator. It accepts the SQL-ish spellings "=" (or "=="), "!=", "<",
// "<=", ">", ">=".
func ParseCmp(op string) (incshrink.Cmp, error) {
	switch op {
	case "=", "==":
		return incshrink.Eq, nil
	case "!=":
		return incshrink.Ne, nil
	case "<":
		return incshrink.Lt, nil
	case "<=":
		return incshrink.Le, nil
	case ">":
		return incshrink.Gt, nil
	case ">=":
		return incshrink.Ge, nil
	default:
		return 0, fmt.Errorf("serve: unknown comparison operator %q", op)
	}
}

// ParseProtocol maps a protocol name to the library constant. The empty
// string selects the default (sDPTimer).
func ParseProtocol(name string) (incshrink.Protocol, error) {
	switch name {
	case "", "sDPTimer", "timer":
		return incshrink.SDPTimer, nil
	case "sDPANT", "ant":
		return incshrink.SDPANT, nil
	default:
		return 0, fmt.Errorf("serve: unknown protocol %q (want sDPTimer or sDPANT)", name)
	}
}

// NewHandler serves the HTTP JSON API over the registry.
func NewHandler(reg *Registry) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := reg.Health()
		code := http.StatusOK
		if !h.Ready {
			// A load balancer should stop routing here: either a restore is
			// rebuilding the tenant set, or some view has 16 writes in flight
			// and its uploads are being bounced.
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})

	mux.HandleFunc("GET /v1/views", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"views": reg.Names()})
	})

	mux.HandleFunc("POST /v1/views", func(w http.ResponseWriter, r *http.Request) {
		var req CreateRequest
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding create request: %w", err))
			return
		}
		proto, err := ParseProtocol(req.Protocol)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		v, err := reg.Create(req.Name,
			incshrink.ViewDef{
				Within:      req.Within,
				Omega:       req.Omega,
				Budget:      req.Budget,
				RightPublic: req.RightPublic,
			},
			incshrink.Options{
				Epsilon:      req.Epsilon,
				Protocol:     proto,
				T:            req.T,
				Theta:        req.Theta,
				UploadEvery:  req.UploadEvery,
				MaxLeft:      req.MaxLeft,
				MaxRight:     req.MaxRight,
				Seed:         req.Seed,
				MergeWindows: req.MergeWindows,
			})
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, v.Stats())
	})

	mux.HandleFunc("DELETE /v1/views/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := reg.Drop(r.PathValue("name")); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"dropped": r.PathValue("name")})
	})

	mux.HandleFunc("POST /v1/views/{name}/advance", withView(reg, func(v *View, w http.ResponseWriter, r *http.Request) {
		var req AdvanceRequest
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding advance request: %w", err))
			return
		}
		step, err := v.Advance(r.Context(), req.Left, req.Right)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, AdvanceResponse{Step: step})
	}))

	mux.HandleFunc("POST /v1/views/{name}/advance-batch", withView(reg, func(v *View, w http.ResponseWriter, r *http.Request) {
		var req AdvanceBatchRequest
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding advance-batch request: %w", err))
			return
		}
		step, err := v.AdvanceBatch(r.Context(), req.Steps)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, AdvanceBatchResponse{Step: step, Steps: len(req.Steps)})
	}))

	count := withView(reg, func(v *View, w http.ResponseWriter, r *http.Request) {
		var conds []incshrink.Where
		if r.Method == http.MethodPost {
			var req CountRequest
			if err := decodeJSON(w, r, &req); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("decoding count request: %w", err))
				return
			}
			for _, c := range req.Where {
				cmp, err := ParseCmp(c.Op)
				if err != nil {
					writeError(w, http.StatusBadRequest, err)
					return
				}
				conds = append(conds, incshrink.Where{Col: c.Col, Minus: c.Minus, Cmp: cmp, Val: c.Val})
			}
		}
		n, qet, err := v.CountWhere(conds...)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, CountResponse{Count: n, QETSeconds: qet})
	})
	mux.HandleFunc("GET /v1/views/{name}/count", count)
	mux.HandleFunc("POST /v1/views/{name}/count", count)

	mux.HandleFunc("GET /v1/views/{name}/stats", withView(reg, func(v *View, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, v.Stats())
	}))

	mux.HandleFunc("POST /v1/views/{name}/snapshot", withView(reg, func(v *View, w http.ResponseWriter, r *http.Request) {
		path, step, err := v.Checkpoint(r.Context())
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, SnapshotResponse{Path: path, Step: step})
	}))

	return reg.withObservability(mux)
}

// withView resolves the {name} path segment to a live view.
func withView(reg *Registry, h func(*View, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err := reg.Get(r.PathValue("name"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		h(v, w, r)
	}
}

// statusFor maps an internal error to a response status. Only errors the
// client can fix are 4xx; anything unrecognized is a server-side 500 —
// blaming the client for an internal failure hides real bugs behind "bad
// request".
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists):
		return http.StatusConflict
	case errors.Is(err, ErrBusy):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, incshrink.ErrInvalidArgument):
		return http.StatusBadRequest
	case errors.Is(err, ErrNoDataDir):
		// The client asked for durability on a server not configured for
		// it: the request is understood but unserviceable here.
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError writes err as a JSON body; ErrBusy also gets a Retry-After,
// since the client may simply try again.
func writeError(w http.ResponseWriter, code int, err error) {
	if errors.Is(err, ErrBusy) {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
