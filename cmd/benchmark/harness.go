package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"time"
)

// runCtx is what one repetition of a workload is given. The program under
// test never sees seed or scale, only the inputs generated from them.
type runCtx struct {
	seed  int64
	scale float64 // op counts relative to sizes.go (1 = run_seconds of work)
	dir   string  // scratch directory inside the checkout, emptied by the caller
	tr    *tracer // nil on untraced repetitions
}

// scaled applies the run's scale to a frozen op count, never below floor.
func (c *runCtx) scaled(n, floor int) int {
	return max(int(math.Round(float64(n)*c.scale)), floor)
}

// segmented applies the run's scale to a frozen op count and rounds the
// result down to a whole number of segments, at least one.
func (c *runCtx) segmented(n, segment int) int {
	return max(c.scaled(n, 0)/segment, 1) * segment
}

// repResult is one repetition's outcome. The timing record — the set-up and
// the measured phase's lanes — is what the run's end-to-end metrics are
// aggregated from (see endToEndOf).
type repResult struct {
	setup time.Duration
	lanes []*lane
	// rates turns each lane's best segment (seconds) into the workload's two
	// rates; it knows how much work one segment of each lane is.
	rates func(bestSegment []float64) (stepsPerS, opsPerS float64)

	layer     values // the per-layer metrics the workload itself can measure
	attempted int    // timed operations plus correctness checks
	failed    int
	digest    string // SHA-256 of the answer sequence
	timed     time.Duration
	problems  []string
}

// lane is one sequential stream of measured work inside a repetition — a
// client, or a phase of a party — cut into consecutive segments. Every
// segment of a lane is the same amount of the same mix of work (10-30 ms of
// it), so segments are comparable with one another, within a repetition
// and across repetitions.
type lane struct {
	segs []time.Duration   // wall of each completed segment
	ops  [][]time.Duration // the primary operation's latencies, per segment
	cur  []time.Duration
	mark time.Time
}

func newLane(segments int) *lane {
	return &lane{segs: make([]time.Duration, 0, segments), ops: make([][]time.Duration, 0, segments)}
}

func (l *lane) start() { l.mark = time.Now() }

// op records one call of the primary operation in the current segment.
func (l *lane) op(d time.Duration) { l.cur = append(l.cur, d) }

// cut closes the current segment and opens the next.
func (l *lane) cut() {
	now := time.Now()
	l.segs = append(l.segs, now.Sub(l.mark))
	l.ops = append(l.ops, l.cur)
	l.cur = make([]time.Duration, 0, len(l.cur))
	l.mark = now
}

// singleLane is the rates function of a workload whose operations all run
// in one lane: steps and ops are the work of one segment.
func singleLane(steps, ops float64) func([]float64) (float64, float64) {
	return func(best []float64) (float64, float64) { return steps / best[0], ops / best[0] }
}

// endToEndOf aggregates a run's repetitions into the end-to-end metrics.
//
// Interference on a shared box only ever adds time, and on the reference
// box it comes in regimes that last from a fraction of a second to many
// seconds and shift every timing by tens of percent; medians and means over
// a 10-second run inherit those shifts. The undisturbed regime is reached,
// briefly, in almost every run. So the measured phase is cut into segments
// of equal work, a few hundred per run, and the run reports its best
// segment: the rates are the work of one segment over the shortest segment
// wall, and op_p50_us is the lowest of the segments' medians of the primary
// operation. A slowdown of the work itself slows every segment, the best
// one included. setup_s is the plain median of the repetitions' set-ups.
func endToEndOf(reps []*repResult) values {
	nl := len(reps[0].lanes)
	best := make([]float64, nl)
	p50 := math.Inf(1)
	setups := make([]float64, len(reps))
	for i, r := range reps {
		setups[i] = r.setup.Seconds()
		for l, ln := range r.lanes[:nl] {
			for s, d := range ln.segs {
				if best[l] == 0 || d.Seconds() < best[l] {
					best[l] = d.Seconds()
				}
				if len(ln.ops[s]) > 0 {
					p50 = min(p50, quantile(sortedUS(ln.ops[s]), 0.5))
				}
			}
		}
	}
	out := values{"setup_s": median(setups), "op_p50_us": p50}
	out["steps_per_s"], out["ops_per_s"] = reps[0].rates(best)
	return out
}

// checker counts correctness checks and keeps the failures' descriptions.
type checker struct {
	attempted, failed int
	problems          []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}

// fail records a failed operation or check (the attempt is counted by the
// caller).
func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// answers digests a workload's answer sequence.
type answers struct{ h hash.Hash }

func newAnswers() answers { return answers{sha256.New()} }

func (a answers) add(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	a.h.Write(b[:])
}

func (a answers) hex() string { return hex.EncodeToString(a.h.Sum(nil)) }

// timedPhase brackets a repetition's measured phase: wall clock plus the
// process-wide allocation and GC counters (the load generator shares the
// process, so its allocations are included on both sides of any comparison).
type timedPhase struct {
	start time.Time
	ms    runtime.MemStats
}

// beginTimed collects garbage left over from set-up, so every repetition
// starts its measured phase from the same heap state, then starts the clock.
func beginTimed() *timedPhase {
	p := &timedPhase{}
	runtime.GC()
	runtime.ReadMemStats(&p.ms)
	p.start = time.Now()
	return p
}

// end stops the clock and fills the go layer from the runtime's counters.
func (p *timedPhase) end(res *repResult, ops int) {
	res.timed = time.Since(p.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.layer["go.alloc_bytes_per_op"] = float64(ms.TotalAlloc-p.ms.TotalAlloc) / float64(ops)
	res.layer["go.allocs_per_op"] = float64(ms.Mallocs-p.ms.Mallocs) / float64(ops)
	res.layer["go.gc_pause_total_ms"] = float64(ms.PauseTotalNs-p.ms.PauseTotalNs) / 1e6
	res.layer["go.heap_inuse_peak_mb"] = float64(max(ms.HeapInuse, p.ms.HeapInuse)) / (1 << 20)
	res.layer["go.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
}

func newRepResult() *repResult {
	return &repResult{layer: make(values)}
}

// finish folds the checker into the result.
func (r *repResult) finish(c *checker, ops int, digest string) {
	r.attempted = ops + c.attempted
	r.failed = c.failed
	r.problems = c.problems
	r.digest = digest
}

// latencyLayer fills the incshrink layer's latency metrics from the four
// per-kind samples (any may be empty).
func latencyLayer(out values, advance, advanceSync, count, countWhere []time.Duration) {
	adv := sortedUS(advance)
	out["incshrink.advance_p50_us"] = quantile(adv, 0.5)
	out["incshrink.advance_p99_us"] = quantile(adv, 0.99)
	out["incshrink.advance_samples"] = float64(len(adv))
	if p := tailPercentile(len(adv)); p > 0 {
		out["incshrink.advance_ptail_pct"] = p
		out["incshrink.advance_ptail_us"] = quantile(adv, p/100)
	}
	out["incshrink.advance_sync_p50_us"] = quantile(sortedUS(advanceSync), 0.5)
	cnt := sortedUS(count)
	out["incshrink.count_p50_us"] = quantile(cnt, 0.5)
	out["incshrink.count_p99_us"] = quantile(cnt, 0.99)
	out["incshrink.countwhere_p50_us"] = quantile(sortedUS(countWhere), 0.5)
}

// scratchDir makes an empty directory for one repetition under the run's
// scratch root; everything the benchmark writes lands below it.
func scratchDir(root, name string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, name+"-")
}

// removeAll removes a scratch directory; a leftover is only clutter, so the
// error is dropped.
func removeAll(dir string) { _ = os.RemoveAll(dir) }
