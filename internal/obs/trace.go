package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one request as it moves from the HTTP handler through
// the wait for its view's lock into the engine. IDs are minted per process and only
// need to be unique within the trace ring's lifetime.
type TraceID uint64

// String renders the ID as 16 hex digits — the form carried in the
// X-Trace-Id header and in structured logs.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// traceSeq drives ID minting; the process epoch read is folded in so two
// restarts of the same binary do not replay the same ID sequence.
var traceSeq atomic.Uint64

// NewTraceID mints a fresh trace ID by running a process-unique sequence
// number through splitmix64. splitmix64 is a bijection, so IDs never
// collide within a process.
func NewTraceID() TraceID {
	n := traceSeq.Add(1) + uint64(Now())
	// splitmix64 finalizer.
	n += 0x9e3779b97f4a7c15
	n = (n ^ (n >> 30)) * 0xbf58476d1ce4e5b9
	n = (n ^ (n >> 27)) * 0x94d049bb133111eb
	return TraceID(n ^ (n >> 31))
}

// ctxKey is the private context key for trace IDs.
type ctxKey struct{}

// WithTrace returns a context carrying the trace ID.
func WithTrace(ctx context.Context, id TraceID) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// TraceFrom extracts the trace ID from a context, if one was attached.
func TraceFrom(ctx context.Context) (TraceID, bool) {
	id, ok := ctx.Value(ctxKey{}).(TraceID)
	return id, ok
}

// A Span is one timed segment of a traced request: the HTTP dispatch, the
// wait for the view's lock, the batch apply that followed it.
type Span struct {
	Trace TraceID       `json:"trace"`
	Name  string        `json:"name"`
	Start Ticks         `json:"start_ticks"`
	Dur   time.Duration `json:"duration_ns"`
	Note  string        `json:"note,omitempty"`
}

// MarshalJSON renders the trace ID as hex so the /debug/traces dump is
// greppable against access logs.
func (s Span) MarshalJSON() ([]byte, error) {
	type wire struct {
		Trace string `json:"trace"`
		Name  string `json:"name"`
		Start int64  `json:"start_ticks"`
		Dur   int64  `json:"duration_ns"`
		Note  string `json:"note,omitempty"`
	}
	return json.Marshal(wire{
		Trace: s.Trace.String(),
		Name:  s.Name,
		Start: int64(s.Start),
		Dur:   int64(s.Dur),
		Note:  s.Note,
	})
}

// TraceLog is a bounded ring of recent spans. Recording never blocks and
// never allocates beyond the span itself; when the ring is full the oldest
// span is overwritten. The zero value is unusable — use NewTraceLog.
type TraceLog struct {
	mu    sync.Mutex
	buf   []Span
	next  int  // index of the next write
	wrapd bool // buf has wrapped at least once
	drops atomic.Uint64
}

// NewTraceLog creates a ring holding up to capacity spans (minimum 1).
func NewTraceLog(capacity int) *TraceLog {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceLog{buf: make([]Span, capacity)}
}

// Record appends a span, overwriting the oldest when full.
func (l *TraceLog) Record(s Span) {
	l.mu.Lock()
	if l.wrapd {
		l.drops.Add(1)
	}
	l.buf[l.next] = s
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.wrapd = true
	}
	l.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (l *TraceLog) Spans() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.wrapd {
		return append([]Span(nil), l.buf[:l.next]...)
	}
	out := make([]Span, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// Handler serves the ring as JSON: {"dropped": N, "spans": [...]}, oldest
// span first.
func (l *TraceLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		spans := l.Spans()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"dropped": l.drops.Load(),
			"spans":   spans,
		})
	})
}
