package core

import (
	"math"

	"incshrink/internal/mpc"
	"incshrink/internal/workload"
)

// Shrinker is the view synchronization strategy: Shrink protocols implement
// it over the framework's cache, view and MPC runtime. Init runs once when
// the framework is constructed; Tick runs at the end of every time step.
type Shrinker interface {
	Init(f *Framework)
	Tick(f *Framework, t int)
	Name() string
}

// StepObserver is an optional Shrinker refinement declaring the protocol's
// observation schedule: ObservesAt reports whether Tick at step t will read
// the cardinality counter or the cache. Window merging (Config.MergeWindows)
// uses it to find the steps where deferred Transforms would become visible;
// protocols that don't implement it are treated as observing every step,
// which keeps merging correct but degenerate. The declaration must be
// conservative — claiming "no observation" at a step where Tick does look
// would let merging change what the protocol sees.
type StepObserver interface {
	ObservesAt(f *Framework, t int) bool
}

// Timer is the sDPTimer protocol of Algorithm 2: every T time steps,
// recover the cardinality counter inside the protocol, distort it with
// jointly generated Laplace(b/eps) noise, fetch that many slots from the
// sorted cache and append them to the view, then reset and re-share the
// counter. It also runs the paper's cache flush (Section 5.2.1).
type Timer struct{}

// Name implements Shrinker.
func (s *Timer) Name() string { return "DP-Timer" }

// Init implements Shrinker.
func (s *Timer) Init(*Framework) {}

// The paper's cache flush (Section 5.2.1), f and s: both DP Shrink protocols
// end the FlushEvery-th step with it, moving the FlushSize head of the sorted
// cache to the view and recycling the rest. Both are public parameters of the
// schedule.
const (
	FlushEvery = 2000
	FlushSize  = 15
)

// timerDue reports whether sDPTimer updates the view at step t: every T steps
// after the first, an interval below 1 meaning every step.
func timerDue(t, T int) bool { return t != 0 && t%max(T, 1) == 0 }

// flushDue reports whether step t ends with the cache flush.
func flushDue(t int) bool { return t != 0 && t%FlushEvery == 0 }

// releases is the seam that makes the Theorem-7/8 simulator the engine
// itself: a recorded run's DP outputs — its fetch events, one per release,
// in order — which Tick takes in place of the mechanism's: sDPTimer's release
// size, sDPANT's SVT bit and release size. Every round, draw, event and meter
// charge still runs, so an engine fed padding alone and a real run's releases
// is the textbook simulator. Only tests set Framework.replay: a production
// engine that forced its releases would void the DP guarantee, which
// internal/analysis's TestReplaySeamTestOnly holds it to.
type releases []mpc.Event

// at returns, and drops, the release recorded at step t; ok is false if none
// was.
func (r *releases) at(t int) (size int, ok bool) {
	if len(*r) == 0 || (*r)[0].Time != t {
		return 0, false
	}
	size = (*r)[0].Size
	*r = (*r)[1:]
	return size, true
}

// ObservesAt implements StepObserver: sDPTimer touches the counter and the
// cache only on its T-step schedule and at the cache flushes.
func (s *Timer) ObservesAt(f *Framework, t int) bool {
	return timerDue(t, f.cfg.T) || flushDue(t)
}

// Tick implements Shrinker. The counter recovery, the joint noise and the
// counter reset's re-share (Alg. 2 lines 3-4 and 9) are one round.
func (s *Timer) Tick(f *Framework, t int) {
	if !timerDue(t, f.cfg.T) {
		f.flush(t)
		return
	}
	rd := f.rt.Round()
	cw, nw, reset := rd.Recover(counterKey), rd.Noise(), rd.Reshare(counterKey)
	f.exchange(rd)
	c := int32(rd.Recovered(cw))
	noise := rd.Laplace(nw, float64(f.cfg.Budget)/f.cfg.Epsilon, mpc.OpShrink)
	sz := int(math.Round(float64(c) + noise))
	if f.replay != nil {
		sz, _ = f.replay.at(t)
	}
	f.syncToView(sz)
	rd.Share(reset, 0)
	f.flush(t)
}

// ANT is the sDPANT protocol of Algorithm 3: split the budget eps in two;
// keep a secret-shared noisy threshold; each step distort the counter and
// compare against the noisy threshold; on crossing, release a DP-sized fetch
// and refresh the threshold with fresh randomness. It also runs the paper's
// cache flush (Section 5.2.1).
type ANT struct{}

// Name implements Shrinker.
func (s *ANT) Name() string { return "DP-ANT" }

const thresholdKey = "theta"

// thresholdFixedPoint converts the noisy threshold to/from the 32-bit
// fixed-point representation stored secret-shared on the servers
// (Alg. 3 line 3). 8 fractional bits are plenty for a count threshold.
const thresholdScale = 256

// Init implements Shrinker: draw and share the first noisy threshold, one
// round.
func (s *ANT) Init(f *Framework) {
	rd := f.rt.Round()
	nw, share := rd.Noise(), rd.Reshare(thresholdKey)
	f.exchange(rd)
	s.refreshThreshold(f, rd, nw, share)
}

// refreshThreshold consumes the noise nw and the re-share slot share that rd
// declared for a fresh noisy threshold.
func (s *ANT) refreshThreshold(f *Framework, rd *mpc.Round, nw, share int) {
	// Alg. 3 line 2/11: theta~ <- JointNoise(S0, S1, b, eps1/2, theta),
	// i.e. Lap(b / (eps1/2)) = Lap(4b/eps) with eps1 = eps/2.
	eps1 := f.cfg.Epsilon / 2
	noisy := f.cfg.Theta + rd.Laplace(nw, float64(f.cfg.Budget)/(eps1/2), mpc.OpShrink)
	rd.Share(share, uint32(int32(math.Round(noisy*thresholdScale))))
}

// Tick implements Shrinker. The SVT check — the counter and threshold
// recoveries and the joint noise — is one round; a release — its noise, the
// refreshed threshold's noise and both re-shares — is another. sDPANT
// observes the counter every step, so it needs no StepObserver.
func (s *ANT) Tick(f *Framework, t int) {
	eps1 := f.cfg.Epsilon / 2
	eps2 := f.cfg.Epsilon / 2
	rd := f.rt.Round()
	cw, tw, nw := rd.Recover(counterKey), rd.Recover(thresholdKey), rd.Noise()
	f.exchange(rd)
	c := int32(rd.Recovered(cw))
	theta := float64(int32(rd.Recovered(tw))) / thresholdScale
	// Alg. 3 line 6: c~ <- JointNoise(S0, S1, b, eps1/4, c) = c + Lap(4b/eps1).
	noisyC := float64(c) + rd.Laplace(nw, float64(f.cfg.Budget)/(eps1/4), mpc.OpShrink)
	sz, fire := 0, noisyC >= theta
	if f.replay != nil {
		sz, fire = f.replay.at(t)
	}
	if !fire {
		f.flush(t)
		return
	}
	rd = f.rt.Round()
	release, refresh := rd.Noise(), rd.Noise()
	share, reset := rd.Reshare(thresholdKey), rd.Reshare(counterKey)
	f.exchange(rd)
	// Alg. 3 line 8: sz <- c + Lap(b/eps2).
	noise := rd.Laplace(release, float64(f.cfg.Budget)/eps2, mpc.OpShrink)
	if f.replay == nil {
		sz = int(math.Round(float64(c) + noise))
	}
	f.syncToView(sz)
	s.refreshThreshold(f, rd, refresh, share)
	// Alg. 3 line 13: reset c to 0.
	rd.Share(reset, 0)
	f.flush(t)
}

// exchange runs one round of the engine's in-process runtime. Every share a
// round recovers was stored at construction and the loopback cannot fail,
// so an error is a broken engine, not a condition to handle.
func (f *Framework) exchange(rd *mpc.Round) {
	if err := rd.Exchange(); err != nil {
		panic("core: " + err.Error())
	}
}

// syncToView performs the common tail of both Shrink protocols: clamp the
// DP-sized fetch, obliviously sort the cache, cut the prefix and the spill
// straight into the view arena (Alg. 2 lines 7-8 / Alg. 3 lines 9-10), and
// prune the cache tail to its public Theorem-4 bound. The fetched slots are
// copied exactly once, cache arena to view arena.
func (f *Framework) syncToView(sz int) {
	sz = min(max(sz, 0), f.cache.Len())
	priceRead(f.rt.Meter, f.cache.Len())
	f.lostReal += f.cache.ReadAndPruneInto(f.view, sz, f.spillLen, f.prune)
	// The spill has a publicly fixed size; record it as a flush-class event,
	// distinct from the DP-sized fetch.
	f.rt.ObserveFlush(f.spillLen, "spill")
	f.rt.ObserveFetch(sz, "shrink")
}

// flush ends both DP Shrink protocols' Tick: every FlushEvery steps it moves
// the FlushSize head of the sorted cache into the view and recycles the rest.
func (f *Framework) flush(t int) {
	if !flushDue(t) {
		return
	}
	fetched := min(FlushSize, f.cache.Len())
	priceRead(f.rt.Meter, f.cache.Len())
	f.lostReal += f.cache.ReadAndPruneInto(f.view, fetched, 0, 0)
	f.rt.ObserveFlush(fetched, "flush")
}

// NewTimerEngine builds an IncShrink engine running sDPTimer.
func NewTimerEngine(cfg Config, wl workload.Config) (*Framework, error) {
	return New(cfg, wl, &Timer{})
}

// NewANTEngine builds an IncShrink engine running sDPANT.
func NewANTEngine(cfg Config, wl workload.Config) (*Framework, error) {
	return New(cfg, wl, &ANT{})
}
