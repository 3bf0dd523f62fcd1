package main

import (
	"math"
	"sort"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the timed work of one run at
// scale 1, summed over its repetitions, on the 2-vCPU reference box. The
// frozen op counts in sizes.go are calibrated to it; -seconds scales them.
const runSeconds = 12

// How many times one run sets a workload up and measures it. Every
// repetition sees identical inputs, so every count must repeat exactly;
// each repetition also gives the engine a fresh set of allocations, whose
// placement moves timings by more than any other thing the benchmark
// controls. cpdb_query's set-up is a 6 000-step preload, serve_http checks
// every view against a replay and a restart, and party_tls's repetition is
// the longest, so they repeat less often.
const (
	reps      = 9
	cpdbReps  = 3
	serveReps = 6
	partyReps = 5
)

// metricDef declares one metric: its name, unit and direction as
// BENCHMARK.json records them. Bound applies to end-to-end metrics only.
// Exact marks a value that is a pure function of (seed, scale): it must
// repeat across repetitions, and -compare fails on any difference.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "steps_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer numbers of the traced run, layer = package
// name. A layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	// incshrink: client-observed latency by operation kind, the paper's
	// accuracy / simulated-cost / storage axes, and snapshot cost.
	{Name: "incshrink.advance_p50_us", Unit: "us", Better: "lower"},
	{Name: "incshrink.advance_sync_p50_us", Unit: "us", Better: "lower"},
	{Name: "incshrink.count_p50_us", Unit: "us", Better: "lower"},
	{Name: "incshrink.countwhere_p50_us", Unit: "us", Better: "lower"},
	{Name: "incshrink.advance_p99_us", Unit: "us", Better: "lower"},
	{Name: "incshrink.count_p99_us", Unit: "us", Better: "lower"},
	{Name: "incshrink.advance_ptail_us", Unit: "us", Better: "lower"},
	{Name: "incshrink.advance_ptail_pct", Unit: "%", Better: "higher", Exact: true},
	{Name: "incshrink.advance_samples", Unit: "count", Better: "higher", Exact: true},
	{Name: "incshrink.l1_error_mean", Unit: "tuples", Better: "lower", Exact: true},
	{Name: "incshrink.sim_mpc_s_per_step", Unit: "s", Better: "lower", Exact: true},
	{Name: "incshrink.sim_qet_ms", Unit: "ms", Better: "lower", Exact: true},
	{Name: "incshrink.view_bytes_per_pair", Unit: "B", Better: "lower", Exact: true},
	{Name: "incshrink.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "incshrink.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "incshrink.snapshot_bytes", Unit: "B", Better: "lower", Exact: true},

	{Name: "serve.http_request_us", Unit: "us", Better: "lower"},
	{Name: "serve.ingest_wait_us", Unit: "us", Better: "lower"},
	{Name: "serve.ingest_apply_us", Unit: "us", Better: "lower"},
	{Name: "serve.client_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.coalesce_steps_per_batch", Unit: "count", Better: "higher"},
	{Name: "serve.rejected_frac", Unit: "fraction", Better: "lower"},
	{Name: "serve.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.restore_all_ms", Unit: "ms", Better: "lower"},

	{Name: "core.transform_us", Unit: "us", Better: "lower"},
	{Name: "core.shrink_us", Unit: "us", Better: "lower"},
	{Name: "core.pad_us", Unit: "us", Better: "lower"},
	{Name: "core.query_us", Unit: "us", Better: "lower"},
	{Name: "core.unattributed_frac", Unit: "fraction", Better: "lower"},
	{Name: "core.view_slots", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.cache_slots", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.dummy_frac", Unit: "fraction", Better: "lower", Exact: true},

	{Name: "oblivious.join_us", Unit: "us", Better: "lower"},
	{Name: "oblivious.join_gates", Unit: "count", Better: "lower", Exact: true},
	{Name: "oblivious.join_ns_per_gate", Unit: "ns", Better: "lower"},
	{Name: "oblivious.compact_us", Unit: "us", Better: "lower"},
	{Name: "oblivious.scan_ns_per_slot", Unit: "ns", Better: "lower"},
	{Name: "oblivious.network_cache_hit_frac", Unit: "fraction", Better: "higher"},

	{Name: "securearray.sync_us", Unit: "us", Better: "lower"},
	{Name: "query.rewrite_ns", Unit: "ns", Better: "lower"},

	{Name: "mpc.exchange_ns", Unit: "ns", Better: "lower"},
	{Name: "mpc.laplace_ns", Unit: "ns", Better: "lower"},
	{Name: "mpc.gates_per_step", Unit: "count", Better: "lower", Exact: true},
	{Name: "mpc.wire_rounds_per_step", Unit: "rounds", Better: "lower", Exact: true},
	{Name: "mpc.wire_bytes_per_step", Unit: "B", Better: "lower", Exact: true},
	{Name: "mpc.predicted_vs_measured", Unit: "ratio", Better: "higher"},

	{Name: "gmw.and_ns_loopback", Unit: "ns", Better: "lower"},
	{Name: "gmw.rounds_per_cex", Unit: "rounds", Better: "lower", Exact: true},
	{Name: "gmw.deal_ns_per_triple", Unit: "ns", Better: "lower"},

	{Name: "wire.loopback_round_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.tls_round_us", Unit: "us", Better: "lower"},
	{Name: "wire.frame_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_round", Unit: "B", Better: "lower", Exact: true},

	{Name: "party.session_steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "party.gmw_cex_per_s", Unit: "1/s", Better: "higher"},
	{Name: "party.wire_rounds_per_step", Unit: "rounds", Better: "lower", Exact: true},
	{Name: "party.wire_bytes_per_step", Unit: "B", Better: "lower", Exact: true},
	{Name: "party.measured_vs_predicted_rounds", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "party.measured_vs_predicted_bytes", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "secretshare.share_recover_ns", Unit: "ns", Better: "lower"},
	{Name: "dp.laplace_ns", Unit: "ns", Better: "lower"},

	{Name: "workload.generate_s", Unit: "s", Better: "lower"},

	{Name: "go.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "go.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "go.heap_inuse_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "go.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "go.gomaxprocs", Unit: "count", Better: "higher", Exact: true},

	{Name: "trace_overhead_frac", Unit: "fraction", Better: "lower"},
}

// values maps a metric name to its measurement.
type values map[string]float64

// fill gives every declared metric missing from v the value 0, so that a run
// always prints the full declared set.
func (v values) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := v[d.Name]; !ok {
			v[d.Name] = 0
		}
	}
}

// median returns the middle of xs (mean of the two middles when even);
// 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// sortedUS converts durations to sorted microseconds.
func sortedUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	sort.Float64s(out)
	return out
}

// quantile reads the q-quantile (nearest rank) of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailPercentile picks the highest of the usual tail percentiles that still
// has at least ten samples beyond it, or 0 when even p90 does not.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.99, 99.9, 99, 95, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}
