package serve

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"incshrink/internal/obs"
)

// serveMetrics are the serving layer's instrument children, registered once
// per registry on the Config.Metrics registry. It is nil without one, and
// each observation site checks that before it records, so an unobserved
// registry pays nothing. The families mirror the per-view ServeStats atomics
// in aggregate — the atomics stay authoritative for the stats endpoint; the
// obs counters are the scrapeable projection.
type serveMetrics struct {
	advances          *obs.Counter
	rejected          *obs.Counter
	failed            *obs.Counter
	batchSteps        *obs.Histogram
	advanceSeconds    *obs.Histogram
	querySeconds      *obs.Histogram
	checkpointSeconds *obs.Histogram
	checkpointBytes   *obs.Histogram
	queueDepth        *obs.Gauge
	views             *obs.Gauge
	httpRequests      *obs.CounterVec
	httpSeconds       *obs.Histogram
}

// latencyBuckets spans 10µs to ~42s.
func latencyBuckets() []float64 { return obs.ExpBuckets(1e-5, 4, 12) }

// newServeMetrics registers the serve families and the scrape-time gauges:
// the writes in flight are summed (and the view count refreshed) inside an
// OnGather hook rather than on every state change, so the hot ingest path
// never touches a Vec lookup.
func newServeMetrics(m *obs.Registry, r *Registry) *serveMetrics {
	sm := &serveMetrics{
		advances: m.Counter("incshrink_serve_advances_total",
			"upload steps applied across all views"),
		rejected: m.Counter("incshrink_serve_rejected_total",
			"upload steps refused at admission (too many writes in flight on the view)"),
		failed: m.Counter("incshrink_serve_failed_total",
			"ingest requests the engine rejected (validation failures)"),
		batchSteps: m.Histogram("incshrink_serve_batch_steps",
			"steps per engine ingest call (one upload request)",
			obs.ExpBuckets(1, 2, 10)),
		advanceSeconds: m.Histogram("incshrink_serve_advance_seconds",
			"wall time applying one upload request", latencyBuckets()),
		querySeconds: m.Histogram("incshrink_serve_query_seconds",
			"wall time serving one count query", latencyBuckets()),
		checkpointSeconds: m.Histogram("incshrink_serve_checkpoint_seconds",
			"wall time writing one view checkpoint", latencyBuckets()),
		checkpointBytes: m.Histogram("incshrink_serve_checkpoint_bytes",
			"size of one written view checkpoint", obs.ExpBuckets(256, 4, 12)),
		queueDepth: m.Gauge("incshrink_serve_queue_depth",
			"writes in flight (waiting for or holding a view's lock) summed over every view"),
		views: m.Gauge("incshrink_serve_views",
			"registered views"),
		httpRequests: m.CounterVec("incshrink_http_requests_total",
			"HTTP API requests, by response status", "code"),
		httpSeconds: m.Histogram("incshrink_http_request_seconds",
			"HTTP API request duration", latencyBuckets()),
	}
	m.OnGather(func() {
		h := r.Health()
		sm.queueDepth.Set(float64(h.Queued))
		sm.views.Set(float64(h.Views))
	})
	return sm
}

// span records a trace span of duration d in the registry's ring, if
// tracing is on and the request carried a trace ID. The caller reads the
// clock, once, for whatever else the interval feeds.
func (r *Registry) span(trace obs.TraceID, name string, start obs.Ticks, d time.Duration, note string) {
	if r.traces == nil || trace == 0 {
		return
	}
	r.traces.Record(obs.Span{Trace: trace, Name: name, Start: start, Dur: d, Note: note})
}

// Health is the registry's readiness report: write pressure plus the
// restore-in-progress flag.
type Health struct {
	// Ready is false during a restore (views are still being re-registered,
	// so requests would land on an incomplete tenant set) and while any view
	// has maxWriters writes in flight, so its uploads are being bounced.
	Ready     bool `json:"ready"`
	Restoring bool `json:"restoring"`
	// Views is the registered view count; Queued sums the writes in flight
	// (waiting for or holding a view's lock); MaxDepth is the most on any
	// one view.
	Views    int `json:"views"`
	Queued   int `json:"queued"`
	MaxDepth int `json:"max_depth"`
}

// Health reports readiness.
func (r *Registry) Health() Health {
	h := Health{Restoring: r.restoring.Load()}
	for _, v := range r.live() {
		d := int(v.writers.Load())
		h.Views++
		h.Queued += d
		h.MaxDepth = max(h.MaxDepth, d)
	}
	h.Ready = !h.Restoring && h.MaxDepth < maxWriters
	return h
}

// statusRecorder captures the response code for access logs and metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

// withObservability wraps the API mux with the request middleware: a trace
// ID per request (minted, or adopted from a valid X-Trace-Id header),
// echoed back in the response, carried in the context to the view's ingest
// spans, recorded as an "http ..." span, and stamped on a structured
// access log line; the histogram, the span and the log line share one
// reading of the request's duration. With no metrics, traces or logger
// configured the middleware collapses to pass-through.
func (r *Registry) withObservability(next http.Handler) http.Handler {
	if r.met == nil && r.traces == nil && r.logger == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := obs.Now()
		trace := traceFromHeader(req.Header.Get("X-Trace-Id"))
		if trace == 0 {
			trace = obs.NewTraceID()
		}
		w.Header().Set("X-Trace-Id", trace.String())
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, req.WithContext(obs.WithTrace(req.Context(), trace)))
		d := obs.Since(start)

		if r.met != nil {
			r.met.httpRequests.With(strconv.Itoa(rec.code)).Inc()
			r.met.httpSeconds.ObserveDuration(d)
		}
		r.span(trace, "http "+req.Method+" "+req.URL.Path, start, d, strconv.Itoa(rec.code))
		if r.logger != nil {
			r.logger.LogAttrs(req.Context(), slog.LevelInfo, "request",
				slog.String("trace", trace.String()),
				slog.String("method", req.Method),
				slog.String("path", req.URL.Path),
				slog.Int("status", rec.code),
				slog.Duration("duration", d),
			)
		}
	})
}

// traceFromHeader parses a 16-hex-digit trace ID, returning 0 for anything
// else (the caller mints a fresh one).
func traceFromHeader(s string) obs.TraceID {
	if len(s) != 16 {
		return 0
	}
	n, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return obs.TraceID(n)
}
