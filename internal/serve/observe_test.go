package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"incshrink"
	"incshrink/internal/obs"
)

// TestHealthDegradedQueue pins the degraded path: a view with maxWriters
// writes in flight flips the registry to unready, and /healthz answers 503
// with the flat report until they have applied.
func TestHealthDegradedQueue(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(context.Background())
	v, err := reg.Create("sales", testDef(), testOpts(42))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	healthz := func() (int, Health) {
		resp, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	if code, h := healthz(); code != http.StatusOK || !h.Ready || h.Views != 1 {
		t.Fatalf("healthy: code=%d %+v", code, h)
	}

	// Back the view up for real: hold its mutex, then start uploads until
	// maxWriters of them wait for it — exactly the state a slow view leaves
	// behind, and the one admission rejects at.
	v.mu.Lock()
	done := make(chan error, maxWriters)
	for i := 0; i < maxWriters; i++ {
		go func() {
			_, err := v.Advance(context.Background(), []incshrink.Row{{int64(i + 1), 0}}, nil)
			done <- err
		}()
	}
	waitFor(t, func() bool { return v.writers.Load() == maxWriters })
	code, h := healthz()
	if code != http.StatusServiceUnavailable || h.Ready {
		t.Fatalf("degraded: code=%d %+v", code, h)
	}
	if h.Views != 1 || h.MaxDepth != maxWriters || h.Queued != maxWriters {
		t.Fatalf("degraded report does not show the backed-up view: %+v", h)
	}
	// The bounced upload is told to come back in a second.
	resp, err := srv.Client().Post(srv.URL+"/v1/views/sales/advance", "application/json", strings.NewReader(`{"left":[[99,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("upload into a saturated view: %d, Retry-After %q; want 503 and 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	v.mu.Unlock()
	for i := 0; i < maxWriters; i++ {
		if err := <-done; err != nil {
			t.Errorf("admitted upload failed: %v", err)
		}
	}
	if code, h := healthz(); code != http.StatusOK || !h.Ready || h.Queued != 0 {
		t.Fatalf("drained: code=%d %+v", code, h)
	}
}

// TestHealthRestoring pins the boot path: while RestoreAll is sweeping the
// data directory the registry reports not-ready even with every queue empty.
func TestHealthRestoring(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(context.Background())

	reg.restoring.Store(true)
	h := reg.Health()
	if h.Ready || !h.Restoring {
		t.Fatalf("restoring registry reported %+v", h)
	}
	reg.restoring.Store(false)
	if h := reg.Health(); !h.Ready || h.Restoring {
		t.Fatalf("idle registry reported %+v", h)
	}
}

// TestServeMetricsScrape drives a full session over the wire with the whole
// observability stack on, then asserts the scrape contains every layer's
// families: serve counters and histograms, per-view core gauges, the MPC
// predicted-vs-measured accounting, and the HTTP middleware's own metrics.
func TestServeMetricsScrape(t *testing.T) {
	m := obs.NewRegistry()
	traces := obs.NewTraceLog(128)
	logs := &strings.Builder{}
	reg := NewRegistry(Config{
		DataDir: t.TempDir(),
		Metrics: m,
		Traces:  traces,
		Logger:  slog.New(slog.NewJSONHandler(logs, nil)),
	})
	defer reg.Close(context.Background())
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	c := srv.Client()

	post := func(url, body string) *http.Response {
		req, err := http.NewRequest("POST", srv.URL+url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := post("/v1/views", `{"name":"sales","within":5,"epsilon":1.5,"t":3,"max_left":8,"max_right":8,"seed":42}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	for i := 0; i < 6; i++ {
		resp := post("/v1/views/sales/advance", `{"left":[[1,0]],"right":[[1,1]]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("advance %d: %d", i, resp.StatusCode)
		}
		if resp.Header.Get("X-Trace-Id") == "" {
			t.Fatal("advance response missing X-Trace-Id")
		}
	}
	resp, err := c.Get(srv.URL + "/v1/views/sales/count")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count: %d", resp.StatusCode)
	}
	if resp := post("/v1/views/sales/snapshot", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}

	text := m.DumpText()
	for _, want := range []string{
		"incshrink_serve_advances_total 6",
		"incshrink_serve_batch_steps_count 6",
		"incshrink_serve_query_seconds_count 1",
		"incshrink_serve_advance_seconds_count 6",
		"incshrink_serve_checkpoint_seconds_count 1",
		"incshrink_serve_checkpoint_bytes_count 1",
		"incshrink_serve_queue_depth 0",
		"incshrink_serve_views 1",
		`incshrink_core_phase_seconds_count{view="sales",phase="transform"} 6`,
		`incshrink_core_phase_seconds_count{view="sales",phase="shrink"} 6`,
		`incshrink_core_phase_seconds_count{view="sales",phase="query"} 1`,
		`incshrink_core_window_records{view="sales",side="left"}`,
		`incshrink_mpc_predicted_vs_measured{op="Transform"}`,
		`incshrink_mpc_predicted_seconds_total{op="Shrink"}`,
		`incshrink_http_requests_total{code="200"}`,
		"incshrink_http_request_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", text)
	}

	// The middleware span and the view's ingest spans share the trace ID
	// minted for the request.
	var sawHTTP, sawApply bool
	for _, s := range traces.Spans() {
		switch {
		case strings.HasPrefix(s.Name, "http POST /v1/views/sales/advance"):
			sawHTTP = true
		case s.Name == "ingest.apply":
			sawApply = true
		}
	}
	if !sawHTTP || !sawApply {
		t.Errorf("trace ring missing spans: http=%v apply=%v", sawHTTP, sawApply)
	}
	if !strings.Contains(logs.String(), `"trace":"`) {
		t.Errorf("access log missing trace IDs: %s", logs.String())
	}

	// Dropping the view removes its per-view core series so the scrape does
	// not accumulate dead tenants.
	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/views/sales", nil)
	if resp, err := c.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("drop: %v %v", err, resp)
	}
	if text := m.DumpText(); strings.Contains(text, `view="sales"`) {
		t.Errorf("dropped view still in scrape:\n%s", text)
	}
}

// TestIntervalsReadOnce pins that each serve interval is read off the clock
// once: after a traced session, incshrink_serve_advance_seconds sums exactly
// the ingest.apply spans' durations and incshrink_http_request_seconds the
// "http ..." spans', to float rounding. A histogram that took its own clock
// reading after the span's would drift from it by that read's cost on every
// request.
func TestIntervalsReadOnce(t *testing.T) {
	m := obs.NewRegistry()
	traces := obs.NewTraceLog(256)
	reg := NewRegistry(Config{Metrics: m, Traces: traces})
	defer reg.Close(context.Background())
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	c := srv.Client()

	if code := postRaw(t, c, srv.URL+"/v1/views", `{"name":"v","within":5,"t":3,"max_left":4,"max_right":4,"seed":3}`); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	for i := range 8 {
		if code := postRaw(t, c, srv.URL+"/v1/views/v/advance", fmt.Sprintf(`{"left":[[%d,%d]],"right":[[%d,%d]]}`, i, i, i, i+1)); code != http.StatusOK {
			t.Fatalf("advance %d: %d", i, code)
		}
	}
	if code := postRaw(t, c, srv.URL+"/v1/views/v/advance-batch", `{"steps":[{"left":[[9,8]]},{"right":[[9,10]]}]}`); code != http.StatusOK {
		t.Fatalf("advance-batch: %d", code)
	}
	if code := doJSON(t, c, "GET", srv.URL+"/v1/views/v/count", nil, nil); code != http.StatusOK {
		t.Fatalf("count: %d", code)
	}

	var apply, request float64
	var applies, requests int
	for _, s := range traces.Spans() {
		switch {
		case s.Name == "ingest.apply":
			apply += s.Dur.Seconds()
			applies++
		case strings.HasPrefix(s.Name, "http "):
			request += s.Dur.Seconds()
			requests++
		}
	}
	if applies != 9 || requests != 11 {
		t.Fatalf("trace ring holds %d ingest.apply and %d http spans, want 9 and 11", applies, requests)
	}
	text := m.DumpText()
	for _, c := range []struct {
		family string
		spans  float64
	}{
		{"incshrink_serve_advance_seconds_sum", apply},
		{"incshrink_http_request_seconds_sum", request},
	} {
		_, after, ok := strings.Cut(text, "\n"+c.family+" ")
		if !ok {
			t.Fatalf("scrape has no %s", c.family)
		}
		line, _, _ := strings.Cut(after, "\n")
		got, err := strconv.ParseFloat(line, 64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.spans) > 1e-9*c.spans {
			t.Errorf("%s = %v, summed spans %v: the histogram and the span read the clock apart", c.family, got, c.spans)
		}
	}
}

// TestTraceHeaderAdopted pins header propagation: a well-formed X-Trace-Id
// is adopted (echoed back and used for spans); a malformed one is replaced
// with a freshly minted ID.
func TestTraceHeaderAdopted(t *testing.T) {
	reg := NewRegistry(Config{Traces: obs.NewTraceLog(16)})
	defer reg.Close(context.Background())
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	get := func(header string) string {
		req, _ := http.NewRequest("GET", srv.URL+"/v1/views", nil)
		if header != "" {
			req.Header.Set("X-Trace-Id", header)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.Header.Get("X-Trace-Id")
	}

	if got := get("00000000deadbeef"); got != "00000000deadbeef" {
		t.Errorf("valid header not adopted: %q", got)
	}
	if got := get("not-a-trace"); got == "" || got == "not-a-trace" || len(got) != 16 {
		t.Errorf("malformed header not replaced: %q", got)
	}
	if got := get(""); len(got) != 16 {
		t.Errorf("minted trace ID malformed: %q", got)
	}
}
