package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one record of the trace file. Spans of one operation share Trace;
// Parent is 0 for the operation's root span.
type span struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps the traced repetition's spans in memory; they are written
// once, when the run ends. A nil *tracer records nothing, which is how the
// untraced repetitions run the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall reading to the trace's nanosecond scale.
func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.epoch).Nanoseconds() }

// add records a span and returns its ID (its 1-based position).
func (t *tracer) add(trace, parent uint64, name, layer string, start, dur int64) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Trace: trace, Span: id, Parent: parent, Name: name, Layer: layer, Start: start, Dur: dur})
	return id
}

// selfTimes returns, per layer, the span count, the summed duration and the
// summed self time (duration minus the children's durations, never below 0).
func (t *tracer) selfTimes() map[string][3]int64 {
	child := make(map[uint64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := make(map[string][3]int64)
	for _, s := range t.spans {
		a := out[s.Layer]
		a[0]++
		a[1] += s.Dur
		a[2] += max(s.Dur-child[s.Span], 0)
		out[s.Layer] = a
	}
	return out
}

// summary prints the per-layer self-time table of a traced repetition.
func (t *tracer) summary(w io.Writer, workload string) {
	st := t.selfTimes()
	layers := make([]string, 0, len(st))
	for l := range st {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "trace %s: %d spans\n", workload, len(t.spans))
	for _, l := range layers {
		a := st[l]
		fmt.Fprintf(w, "  %-12s spans=%-8d total=%-14s self=%s\n", l, a[0], time.Duration(a[1]), time.Duration(a[2]))
	}
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
