GO ?= go

.PHONY: check fmt vet build test lint orphans deadexports race bench-smoke benchmark obs-smoke recover-smoke wire-smoke fuzz-smoke goldens serve

# check is what CI runs: formatting, static checks, build, tests, the
# data-plane benchmark smoke, the observability smoke (boot the production
# wiring, scrape /metrics, assert every layer's families), the crash-recovery
# smoke, and the two-process wire smoke (real TLS sockets, byte-identical to
# loopback, measured wire cost vs prediction). CI's race job is left out: run
# it by name. Nothing here judges wall time: the end-to-end benchmark
# (benchmark, below) is the one place it is measured.
check: lint build test bench-smoke obs-smoke recover-smoke wire-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# lint is the full static-analysis gate (CI runs this): formatting, go vet,
# the orphaned-package and dead-export checks (orphans and deadexports,
# below) and then the incshrink-lint analyzers — detclock, rngdraw, maporder,
# oblivtaint, and the bans goleak (a library go statement must name its join
# in an allow) and atomicmix (no sync/atomic function; see internal/analysis
# and DESIGN.md §10) — over every package and test file, from one source
# load of the module. When staticcheck/govulncheck are on PATH they run too;
# CI installs them at pinned versions, offline checkouts just skip them.
# Intentional violations are annotated in source as
# `//lint:allow <analyzer> <reason>` — the reason is mandatory, an allow
# without one is itself a finding, and so is an allow that suppresses nothing.
lint: fmt vet orphans deadexports
	$(GO) run ./cmd/incshrink-lint
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "govulncheck not installed; skipping (CI runs it pinned)"; fi

# orphans keeps "delete what nothing calls" done: every internal package must
# be in the dependency closure of the library, a command or an example — a
# package only its own tests import prints here and fails the gate. The one
# named exception is the analyzers' test harness, test-only by design.
orphans:
	@deps="$$($(GO) list -deps . ./cmd/... ./examples/...)" || exit 1; \
	out="$$($(GO) list ./internal/... | grep -vxF -e "$$deps" -e incshrink/internal/analysis/analysistest)"; \
	if [ -n "$$out" ]; then echo "internal packages no program imports:"; echo "$$out"; exit 1; fi

# deadexports is the same rule one level down: an exported function, type,
# variable, constant or method of an internal package must be referenced from
# somewhere other than its own package's tests. It reads the units the lint
# driver loads (internal/analysis TestDeadExports, which also runs with the
# normal test suite); what it tolerates is a table in that file, one
# reason per symbol. The same load fails if a non-test file uses package
# sync's Pool: scratch has an owner (DESIGN.md §7), and, in
# TestOblivTaintTablesNameLiveCode, if an oblivtaint sanction, column
# parameter or secret source names a function, parameter, method or field
# the module does not have.
deadexports:
	$(GO) test -count=1 -run 'TestDeadExports$$|TestOblivTaintTablesNameLiveCode$$' ./internal/analysis

test:
	$(GO) test ./...

# race exercises the concurrent sweep engine (internal/runner's worker pool,
# and the experiments' any-worker-count determinism on top of it), the
# serving subsystem (whose concurrent views are also what reaches
# internal/oblivious' one process-wide structure, the comparator tables —
# each built once under a sync.Once — from several goroutines; that package
# itself starts none), the engine, and the two-party stack: every gmw/party
# pair test is two goroutines over one conn pair whose counters are read from
# both. CI's race job runs exactly this target.
race:
	$(GO) test -race ./internal/runner
	$(GO) test -race ./internal/serve
	$(GO) test -race ./internal/core
	$(GO) test -race ./internal/gmw ./internal/party ./internal/wire
	$(GO) test -race -run TestDeterministicAcrossWorkerCounts ./internal/experiments

# bench-smoke compiles and runs every data-plane benchmark once, so none of
# them can bit-rot (CI runs this). They are:
# - the operator benchmarks, both sort shapes among them: the real-first
#   cache sort (BenchmarkSortBuffer1K) and the join at the tpcds padded size
#   (BenchmarkJoinSort1040);
# - the join as the engine runs it at the tpcds_step shape, a block's keys
#   merged into the 936 carried keys while the scan retires the oldest
#   block's (BenchmarkMergeJoinCarry, which fails if a warm join allocates);
# - 512 distinct sort lengths in the cpdb cache's range
#   (BenchmarkSortVaryingLengths, which fails if a warm sort builds a
#   comparator table or allocates);
# - the scan kernel over a packed flag bitset at the cpdb view size, and one
#   slot more so its staged tail block runs too (BenchmarkCountColumns120k,
#   which fails if a scan allocates);
# - the cache read at the layouts cpdb_query, tpcds_step and tpcds_batch
#   meet (BenchmarkCacheReadRuns: a real-first remainder and compacted
#   batches merged, not sorted, and cut to the K slots the read keeps; it
#   fails if a warm read allocates);
# - the two-party GMW comparator over loopback
#   (BenchmarkEvalCompareExchangeLoopback, which reports rounds/op);
# - the root package's Advance, AdvanceBatch8, AdvanceANT, Count and
#   CountWhere benchmarks (TestAdvanceBatchStepAllocs pins their warm
#   allocations exactly);
# - the root package's sort-versus-merge join ablation
#   (BenchmarkJoinSortVsMerge, which fails if the two joins emit different
#   pairs or the default deployment's join runs more than 6,000 comparators);
# - the trace generator on a 1,000-step TPC-ds trace
#   (BenchmarkGenerateTPCDS1K, which reports allocations per trace;
#   TestGenerateAllocs holds a 2,000-step trace to at most 1,000).
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./internal/oblivious ./internal/securearray ./internal/gmw ./internal/workload
	$(GO) test -run XXX -bench 'BenchmarkAdvance|BenchmarkCount|BenchmarkJoinSortVsMerge' -benchtime 1x .

# benchmark runs the end-to-end benchmark BENCHMARK.json declares — the five
# workloads of cmd/benchmark, serve_http (the one place the serving layer is
# measured) among them — and writes the layered report under .bench_out/.
benchmark:
	@mkdir -p .bench_out
	$(GO) run ./cmd/benchmark -out .bench_out/report.json

# obs-smoke boots the full production observability wiring in-process —
# metrics registry, trace ring, slog access logs, ops mux — drives a tenant
# session, and asserts the /metrics scrape exposes exactly the pinned serve,
# core and MPC families (DESIGN.md §11's inventory), /debug/traces holds the
# session's spans, and pprof answers only on the ops listener (CI runs this).
# The goldens-with-obs pin (TestObservedGoldensIdentical) runs with the
# normal test suite.
obs-smoke:
	$(GO) test -count=1 -run 'TestObsSmoke' ./cmd/incshrink-server

# recover-smoke proves crash recovery end to end (CI runs this): snapshot a
# deployment mid-run, restore it, and verify counts/stats stay identical to
# an uninterrupted run — through the public API, through the serving layer's
# checkpoint/restore-on-boot path, and in core for both DP protocols and the
# EP and OTM baselines (OTM's freeze restores with its view) — that shutdown
# loses no acknowledged upload (writers racing Close, checkpointed as soon as
# it returns and restored, stand at exactly the steps they were told applied),
# that what a checkpoint writes beside the view does not grow with the
# horizon (the runtime section is the same size after 10,000 steps as after
# 10), and that a two-party deployment whose parties — each a one-party
# engine — are rebuilt on a fresh connection, each from its own engine state
# section, continues byte-identical to the pair that never stopped (answers,
# transcript digests, final state sections with their wire tallies) on every
# Theorem-7/8 row, the cache flush included. The exhaustive
# byte-identical matrix (goldens at k in {1,37,60,119}, every framework
# engine restarted: both DP protocols, EP and OTM) runs with the normal test
# suite as internal/experiments TestCrashRecoveryReproducesGoldens.
recover-smoke:
	$(GO) test -count=1 -run 'TestRecoverSmoke' .
	$(GO) test -count=1 -run 'TestFrameworkSnapshotRestoreContinues|TestRuntimeStateDoesNotGrowWithHorizon|TestPartyEnginesRejoinByteIdentical' ./internal/core
	$(GO) test -count=1 -run 'TestRegistryCheckpointRestore|TestPeriodicCheckpointing|TestCloseIsAckBarrier' ./internal/serve

# wire-smoke proves the transport stack end to end (CI runs this): build
# cmd/incshrink-party, spawn two party processes over localhost TLS with
# self-signed certificates in a temp dir, and require (a) the networked
# session is byte-identical to the in-process loopback reference — opened
# values, transcript digests, wire tallies — and (b) the
# measured per-party wire rounds/bytes equal the mpc cost-model prediction
# exactly. The measured numbers land in BENCH_wire.json, which CI holds with
# git diff --exit-code.
wire-smoke:
	$(GO) build -o bin/incshrink-party ./cmd/incshrink-party
	./bin/incshrink-party -smoke -bench BENCH_wire.json

# fuzz-smoke gives each snapshot-codec fuzz target (the section codecs, the
# whole engine state and the DB stream a durable server reads from disk), the
# wire framing, a GMW peer's fuzzed openings, the view scan kernel against
# its branching oracle, the cache read against its stable-partition oracle
# and the Theorem-7/8 check on drawn deployments (a real run against its
# pad replay) a short budget beyond the seed corpus (the corpus itself
# already runs in `test`). Minimising a new input gets 1 s, not the default
# minute, so a target that finds one early keeps fuzzing for the rest of its
# 10 s. CI runs it as its own job.
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzDecodeBuffer -fuzztime 10s -fuzzminimizetime 1s ./internal/snapshot
	$(GO) test -run XXX -fuzz FuzzBufferRoundTrip -fuzztime 10s -fuzzminimizetime 1s ./internal/snapshot
	$(GO) test -run XXX -fuzz FuzzDecodeRuntime -fuzztime 10s -fuzzminimizetime 1s ./internal/snapshot
	$(GO) test -run XXX -fuzz FuzzDecodeFrameworkState -fuzztime 10s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run XXX -fuzz FuzzRestore -fuzztime 10s -fuzzminimizetime 1s .
	$(GO) test -run XXX -fuzz FuzzFrameDecoder -fuzztime 10s -fuzzminimizetime 1s ./internal/wire
	$(GO) test -run XXX -fuzz FuzzPeerOpen -fuzztime 10s -fuzzminimizetime 1s ./internal/gmw
	$(GO) test -run XXX -fuzz FuzzCountColumns -fuzztime 10s -fuzzminimizetime 1s ./internal/oblivious
	$(GO) test -run XXX -fuzz FuzzCacheRead -fuzztime 10s -fuzzminimizetime 1s ./internal/securearray
	$(GO) test -run XXX -fuzz FuzzSimulator -fuzztime 10s -fuzzminimizetime 1s ./internal/core

# goldens regenerates the seven pinned reports (Table 2, Figures 4-9 at seed
# 1, 120 steps) that internal/experiments TestGoldenReportsByteIdentical
# compares byte for byte. Run it only after an intended change to what the
# reports show, and say so in the commit.
goldens:
	$(GO) build -o bin/incshrink-bench ./cmd/incshrink-bench
	for exp in table2 fig4 fig5 fig6 fig7 fig8 fig9; do \
		./bin/incshrink-bench -exp $$exp -steps 120 -seed 1 -workers 1 \
			> internal/experiments/testdata/golden_$${exp}_seed1_steps120.txt || exit 1; \
	done

# serve runs the multi-tenant HTTP front end (see examples/server for a
# curl-able session). Add DATA=./incshrink-data for a durable server.
serve:
	$(GO) run ./cmd/incshrink-server -addr :8080 $(if $(DATA),-data $(DATA))
