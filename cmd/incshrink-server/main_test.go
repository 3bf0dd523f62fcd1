package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"incshrink/internal/serve"
)

// TestObsSmoke is the in-process form of `make obs-smoke`: boot the exact
// production wiring (buildApp), drive a short tenant session through the
// API listener, then scrape the ops listener and assert it exposes exactly
// the pinned metric families of every layer, the trace ring holds the
// session's spans, pprof answers, and the access log carries trace IDs.
func TestObsSmoke(t *testing.T) {
	logs := &strings.Builder{}
	a, err := buildApp(appConfig{
		TraceBuffer: 256,
		LogLevel:    slog.LevelInfo,
		DataDir:     t.TempDir(),
	}, logs)
	if err != nil {
		t.Fatal(err)
	}
	defer a.reg.Close(context.Background())

	api := httptest.NewServer(a.api)
	defer api.Close()
	ops := httptest.NewServer(a.ops)
	defer ops.Close()

	do := func(method, url, body string) (int, string) {
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := api.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	if code, body := do("POST", api.URL+"/v1/views", `{"name":"smoke","within":5,"epsilon":1.5,"t":3,"max_left":8,"max_right":8,"seed":7}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	for i := 0; i < 4; i++ {
		if code, body := do("POST", api.URL+"/v1/views/smoke/advance", `{"left":[[1,0]],"right":[[1,1]]}`); code != http.StatusOK {
			t.Fatalf("advance: %d %s", code, body)
		}
	}
	if code, body := do("GET", api.URL+"/v1/views/smoke/count", ""); code != http.StatusOK {
		t.Fatalf("count: %d %s", code, body)
	}
	if code, body := do("POST", api.URL+"/v1/views/smoke/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", code, body)
	}

	// /healthz reflects the serving state through the same middleware.
	if code, body := do("GET", api.URL+"/healthz", ""); code != http.StatusOK || !strings.Contains(body, `"ready":true`) {
		t.Fatalf("healthz: %d %s", code, body)
	}

	// The ops scrape exposes exactly the families of every instrumented
	// layer: DESIGN.md §11's inventory, one family per row.
	resp, err := ops.Client().Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	var families []string
	for _, line := range strings.Split(string(scrape), "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, typ)
		}
	}
	sort.Strings(families)
	if want := []string{
		"incshrink_core_cache_len gauge",
		"incshrink_core_comparator_cache_evictions gauge",
		"incshrink_core_comparator_cache_hits gauge",
		"incshrink_core_comparator_cache_misses gauge",
		"incshrink_core_comparator_cache_pairs gauge",
		"incshrink_core_phase_seconds histogram",
		"incshrink_core_view_len gauge",
		"incshrink_core_window_blocks gauge",
		"incshrink_core_window_records gauge",
		"incshrink_http_request_seconds histogram",
		"incshrink_http_requests_total counter",
		"incshrink_mpc_measured_seconds_total counter",
		"incshrink_mpc_predicted_seconds_total counter",
		"incshrink_mpc_predicted_vs_measured gauge",
		"incshrink_mpc_predicted_vs_measured_wire_bytes gauge",
		"incshrink_mpc_wire_bytes_total counter",
		"incshrink_mpc_wire_rounds_total counter",
		"incshrink_mpc_wire_words_total counter",
		"incshrink_serve_advance_seconds histogram",
		"incshrink_serve_advances_total counter",
		"incshrink_serve_batch_steps histogram",
		"incshrink_serve_checkpoint_bytes histogram",
		"incshrink_serve_checkpoint_seconds histogram",
		"incshrink_serve_failed_total counter",
		"incshrink_serve_query_seconds histogram",
		"incshrink_serve_queue_depth gauge",
		"incshrink_serve_rejected_total counter",
		"incshrink_serve_views gauge",
	}; !slices.Equal(families, want) {
		t.Errorf("scrape exposes families\n%s\nwant\n%s", strings.Join(families, "\n"), strings.Join(want, "\n"))
	}

	// The trace ring is served as JSON and holds the session's spans.
	resp, err = ops.Client().Get(ops.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Dropped int               `json:"dropped"`
		Spans   []json.RawMessage `json:"spans"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/traces: %v", err)
	}
	if len(dump.Spans) == 0 {
		t.Error("/debug/traces: no spans after a session")
	}

	// pprof is reachable on the ops mux (and only there).
	resp, err = ops.Client().Get(ops.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %d", resp.StatusCode)
	}
	if code, _ := do("GET", api.URL+"/debug/pprof/cmdline", ""); code == http.StatusOK {
		t.Error("pprof reachable on the tenant API listener")
	}

	if !strings.Contains(logs.String(), `"trace":"`) {
		t.Errorf("access log missing trace IDs: %s", logs.String())
	}

	// A scrape of this registry stays cheap next to the work it reports on:
	// about 600 allocations and 65 KB here, where a Replacer built per help
	// string and label value costs 2,000 and 1.4 MB.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const scrapes = 20
	allocs := testing.AllocsPerRun(scrapes, func() { _ = a.metrics.WritePrometheus(io.Discard) })
	runtime.ReadMemStats(&after)
	perScrape := (after.TotalAlloc - before.TotalAlloc) / (scrapes + 1) // AllocsPerRun warms up once
	if allocs > 1000 || perScrape > 200<<10 {
		t.Errorf("one scrape allocates %.0f objects, %d B; want <= 1000 objects, <= 200 KiB", allocs, perScrape)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"warn":  slog.LevelWarn,
		"error": slog.LevelError,
	} {
		got, err := parseLevel(in)
		if err != nil || got != want {
			t.Errorf("parseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseLevel("loud"); err == nil {
		t.Error("parseLevel accepted garbage")
	}
}

// TestStalledHeadersDisconnect: on both of the server's listeners, a client
// that sends half a request line and stalls is disconnected within the
// header timeout, not held — with its goroutine — forever.
func TestStalledHeadersDisconnect(t *testing.T) {
	a, err := buildApp(appConfig{TraceBuffer: 16, LogLevel: slog.LevelError}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.reg.Close(context.Background()) })
	for _, l := range []struct {
		name string
		h    http.Handler
	}{{"api", a.api}, {"ops", a.ops}} {
		h := l.h
		t.Run(l.name, func(t *testing.T) {
			t.Parallel()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := serve.NewHTTPServer("", h)
			if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
				t.Fatalf("timeouts header %v, read %v, write %v, idle %v: want all set",
					srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
			}
			go srv.Serve(ln)
			defer srv.Close()

			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			start := time.Now()
			if _, err := conn.Write([]byte("GET /heal")); err != nil {
				t.Fatal(err)
			}
			// net/http may answer (a 408) before it closes; what matters is
			// that it closes.
			conn.SetReadDeadline(start.Add(2 * srv.ReadHeaderTimeout))
			if got, err := io.ReadAll(conn); err != nil {
				t.Fatalf("after half a request line: read %q, then %v; want the server to close", got, err)
			}
			if waited := time.Since(start); waited > srv.ReadHeaderTimeout+time.Second {
				t.Fatalf("closed after %v, want within the %v header timeout", waited, srv.ReadHeaderTimeout)
			}
		})
	}
}
