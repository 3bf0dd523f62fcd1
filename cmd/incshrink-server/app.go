package main

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"

	"incshrink/internal/obs"
	"incshrink/internal/serve"
)

// appConfig is the parsed command line — everything the server needs that
// isn't a listener address, so tests can build the exact production wiring
// in-process and attach httptest listeners instead.
type appConfig struct {
	DataDir         string
	CheckpointEvery int
	TraceBuffer     int
	LogLevel        slog.Level
}

// app is the assembled server: the registry, the public API handler, and
// the private ops handler (/metrics, /debug/pprof, /debug/traces). The two
// handlers are meant for separate listeners — the ops side exposes
// profiling endpoints and must not share the tenant-facing port.
type app struct {
	reg     *serve.Registry
	metrics *obs.Registry
	traces  *obs.TraceLog
	logger  *slog.Logger
	api     http.Handler
	ops     http.Handler
	// restored names the views recovered from the data directory at boot.
	restored []string
}

// buildApp wires the full observability stack: a metrics registry and trace
// ring shared by the serving layer and the ops endpoints, and a JSON logger
// whose access lines carry the request trace IDs. Restore-on-boot runs here
// (before any listener opens) so a returned app is ready to serve.
func buildApp(cfg appConfig, logDst io.Writer) (*app, error) {
	logger := slog.New(slog.NewJSONHandler(logDst, &slog.HandlerOptions{Level: cfg.LogLevel}))
	metrics := obs.NewRegistry()
	traces := obs.NewTraceLog(cfg.TraceBuffer)

	scfg := serve.Config{Metrics: metrics, Traces: traces, Logger: logger}
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("creating data directory: %w", err)
		}
		scfg.DataDir = cfg.DataDir
		scfg.CheckpointEvery = cfg.CheckpointEvery
	}

	a := &app{
		reg:     serve.NewRegistry(scfg),
		metrics: metrics,
		traces:  traces,
		logger:  logger,
	}
	if scfg.DataDir != "" {
		// Restore-on-boot: every checkpointed view comes back before the
		// listener opens, bit-identical to its last checkpoint.
		restored, err := a.reg.RestoreAll()
		if err != nil {
			// Healthy views are already serving; name the broken snapshots
			// and keep going rather than refusing to start.
			logger.Error("restore", slog.Any("error", err))
		}
		a.restored = restored
	}
	a.api = serve.NewHandler(a.reg)
	a.ops = opsHandler(metrics, traces)
	return a, nil
}

// opsHandler builds the private operations mux: Prometheus metrics, the
// trace ring dump, and the stdlib profiler. It hangs the pprof handlers on
// an explicit mux (never http.DefaultServeMux) so nothing the tenant-facing
// API serves can reach them.
func opsHandler(metrics *obs.Registry, traces *obs.TraceLog) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", metrics.Handler())
	mux.Handle("GET /debug/traces", traces.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// parseLevel maps the -log-level flag to a slog level.
func parseLevel(s string) (slog.Level, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
	}
	return l, nil
}
