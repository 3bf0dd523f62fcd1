// Command incshrink-server is the multi-tenant serving front end: it hosts
// many named IncShrink views behind an HTTP JSON API (internal/serve): each
// request runs on its handler's goroutine under its view's lock, so one
// view's uploads apply in order while distinct views ingest in parallel.
// Each view admits at most 16 writes in flight; the 17th answers 503 with
// Retry-After: 1, and an advance-batch request carries at most 512 steps.
// Both listeners time out a stalled connection (serve.NewHTTPServer): 5 s
// for the headers, 21 s for the whole request, 53 s to the end of the
// response, 60 s idle.
//
// Usage:
//
//	incshrink-server -addr :8080 -ops-addr :9090 \
//	    -data /var/lib/incshrink -checkpoint-every 100 -log-level info
//
// A curl session against a running server:
//
//	curl -X POST localhost:8080/v1/views -d '{"name":"sales","within":10,"epsilon":1.5,"seed":42}'
//	curl -X POST localhost:8080/v1/views/sales/advance -d '{"left":[[1,0]],"right":[[1,1]]}'
//	curl -X POST localhost:8080/v1/views/sales/advance-batch \
//	     -d '{"steps":[{"left":[[2,1]],"right":[]},{"left":[[3,2]],"right":[[3,2]]}]}'
//	curl localhost:8080/v1/views/sales/count
//	curl -X POST localhost:8080/v1/views/sales/count \
//	     -d '{"where":[{"col":"right.time","minus":"left.time","op":"<=","val":3}]}'
//	curl localhost:8080/v1/views/sales/stats
//	curl -X POST localhost:8080/v1/views/sales/snapshot
//
// With -ops-addr set, a second private listener serves the operations
// surface: GET /metrics (Prometheus text format, every layer's families —
// serve queue/latency metrics, per-view core engine gauges, and the
// MPC predicted-vs-measured cost accounting), GET /debug/traces (the
// bounded in-memory span ring as JSON), and /debug/pprof/* (the stdlib
// profiler). Keep the ops port off the tenant network.
//
// Logs are JSON lines on stderr (log/slog); every API request is logged
// with its trace ID, which is also echoed to the client in X-Trace-Id and
// attached to the ingest spans the request leaves in /debug/traces.
//
// With -data set the server is durable: every view checkpoints to
// <data>/<name>.snap (periodically, on demand via the snapshot endpoint,
// and at shutdown), and a restarting server restores every checkpointed
// view before accepting traffic — the restored state is bit-identical to
// the moment of the checkpoint, including the DP protocols' randomness
// positions, so the privacy guarantee over the whole update history is
// unbroken by the restart. While the restore sweep runs, GET /healthz
// reports 503; it also degrades to 503 while any view has 16 writes in
// flight (the state in which that view's uploads are bounced).
//
// SIGINT/SIGTERM triggers graceful shutdown: in-flight requests finish,
// every view is closed — each upload acknowledged so far has applied, and
// none is acknowledged afterwards — final checkpoints are written, then the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"incshrink/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address for the tenant API")
		opsAddr  = flag.String("ops-addr", "", "listen address for the private ops surface: /metrics, /debug/traces, /debug/pprof (empty = disabled)")
		grace    = flag.Duration("grace", 10*time.Second, "graceful shutdown budget")
		dataDir  = flag.String("data", "", "data directory for view checkpoints (empty = not durable)")
		cpEvery  = flag.Int("checkpoint-every", 100, "checkpoint a view every N applied uploads (needs -data; 0 = only explicit/shutdown checkpoints)")
		traceBuf = flag.Int("trace-buffer", 4096, "spans kept in the in-memory trace ring served at /debug/traces")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	)
	flag.Parse()

	level, err := parseLevel(*logLevel)
	if err != nil {
		slog.Error("flags", slog.Any("error", err))
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	a, err := buildApp(appConfig{
		DataDir:         *dataDir,
		CheckpointEvery: *cpEvery,
		TraceBuffer:     *traceBuf,
		LogLevel:        level,
	}, os.Stderr)
	if err != nil {
		slog.Error("startup", slog.Any("error", err))
		os.Exit(1)
	}
	log := a.logger
	if len(a.restored) > 0 {
		log.Info("restored views", slog.Int("count", len(a.restored)),
			slog.String("data", *dataDir), slog.Any("views", a.restored))
	}

	srv := serve.NewHTTPServer(*addr, a.api)
	errc := make(chan error, 2)
	go func() { errc <- srv.ListenAndServe() }()

	var opsSrv *http.Server
	if *opsAddr != "" {
		opsSrv = serve.NewHTTPServer(*opsAddr, a.ops)
		go func() { errc <- opsSrv.ListenAndServe() }()
		log.Info("ops listening", slog.String("addr", *opsAddr))
	}
	log.Info("incshrink-server listening",
		slog.String("addr", *addr),
		slog.String("data", *dataDir))

	select {
	case <-ctx.Done():
		log.Info("shutting down", slog.Duration("grace", *grace))
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Warn("http shutdown", slog.Any("error", err))
		}
		if opsSrv != nil {
			if err := opsSrv.Shutdown(sctx); err != nil {
				log.Warn("ops shutdown", slog.Any("error", err))
			}
		}
		// Close is a barrier: once it returns, every acknowledged upload
		// has applied and no later one can be, so the final checkpoints
		// match exactly what every view last acknowledged. It returns nil.
		_ = a.reg.Close(sctx)
		if *dataDir != "" {
			if err := a.reg.CheckpointAll(); err != nil {
				log.Error("final checkpoint", slog.Any("error", err))
			} else {
				log.Info("checkpointed views", slog.Int("count", a.reg.Len()), slog.String("data", *dataDir))
			}
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Error("listener", slog.Any("error", err))
			os.Exit(1)
		}
	}
}
