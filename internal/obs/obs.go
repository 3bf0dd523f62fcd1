// Package obs is the production observability layer: a stdlib-only metrics
// registry (atomic counters, gauges and fixed-bucket exponential histograms
// with Prometheus text-format exposition), the sanctioned monotonic clock
// read (Now / Since), and a lightweight request-trace layer (trace IDs,
// spans, a bounded in-memory ring buffer dumpable over HTTP).
//
// The package exists under one invariant, pinned by tests across the whole
// stack: observability observes the engine but never feeds back into it.
// Instrumented code may read the clock and record measurements, but no
// engine decision — no branch, no size, no RNG draw — may depend on an
// observed value. With instrumentation fully enabled, golden reports and
// durability snapshots are byte-identical to an uninstrumented run.
//
// Two rules make that invariant checkable:
//
//   - Wall time is read only through Now and Since in this package.
//     internal/analysis/detclock forbids time.Now and friends in every
//     deterministic package and sanctions exactly this package as the one
//     legal wall-time origin; instrumented packages call obs.Now/obs.Since
//     instead of touching package time.
//   - Every instrument is write-only from the engine's point of view:
//     Counters, Gauges and Histograms accept observations through atomic
//     operations and are read only by the exposition path (/metrics) and by
//     other instruments (the predicted-vs-measured ratio gauges).
//
// All instruments are safe for concurrent use; a scrape may race any number
// of writers and always observes a consistent text rendering (per-sample
// atomicity, cumulative histogram buckets re-derived at exposition time).
package obs
