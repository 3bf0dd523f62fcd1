package main

import (
	"slices"
	"time"
)

// Layer probes measure one layer from outside, by timing calls into its
// public functions at fixed public sizes or by reading counters it already
// exports. They do not depend on the workload, so every traced run carries
// the same set; each layer's probe lives in its own probe_<layer>.go.

// probeCtx is what a probe is given.
type probeCtx struct {
	seed  int64
	quick bool   // -quick: a handful of calls, enough to prove the probe runs
	dir   string // scratch directory inside the checkout
}

// calls scales a probe's call count down under -quick.
func (pc *probeCtx) calls(n int) int {
	if pc.quick {
		return max(n/50, 1)
	}
	return n
}

// probeBatches is how many batches perCallNS picks the best of.
const probeBatches = 7

// perCallNS times f in probeBatches batches of per calls each and returns
// the best batch's nanoseconds per call: like the workloads' segments, the
// fastest batch is the one interference disturbed least.
func perCallNS(per int, f func()) float64 {
	xs := make([]float64, probeBatches)
	for b := range xs {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		xs[b] = float64(time.Since(t0).Nanoseconds()) / float64(per)
	}
	return slices.Min(xs)
}

// runProbes runs every layer probe once.
func runProbes(p plan) (values, error) {
	dir, err := scratchDir(p.scratch, "probes")
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)
	pc := &probeCtx{seed: p.seed, quick: p.scale < 0.1, dir: dir}
	out := make(values)
	for _, probe := range []func(*probeCtx, values) error{
		probeOblivious, probeSecureArray, probeQuery, probeMPC, probeGMW, probeWire, probeParty,
	} {
		if err := probe(pc, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
