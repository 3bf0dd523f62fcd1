package main

import (
	"strconv"
	"strings"

	"incshrink/internal/mpc"
	"incshrink/internal/obs"
)

// scrape reads a metrics registry the way an operator does: through its
// Prometheus text exposition. Keys are the sample lines' left-hand sides,
// `name{label="v",...}`, in the exposition's own (sorted) order, so sums
// over a family add in the same order on every run.
type scrape []scrapeSample

type scrapeSample struct {
	key string
	v   float64
}

func scrapeRegistry(r *obs.Registry) scrape {
	var out scrape
	for _, line := range strings.Split(r.DumpText(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out = append(out, scrapeSample{line[:i], v})
		}
	}
	return out
}

// sum adds every sample of the named family whose label set contains all of
// the given `key="value"` fragments (none = the whole family).
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
next:
	for _, e := range s {
		if e.key != name && !strings.HasPrefix(e.key, name+"{") {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(e.key, l) {
				continue next
			}
		}
		total += e.v
	}
	return total
}

// phaseStat is one engine phase's histogram: cumulative seconds and
// observations, summed over views.
type phaseStat struct{ sec, n float64 }

func (p phaseStat) sub(q phaseStat) phaseStat { return phaseStat{p.sec - q.sec, p.n - q.n} }

// meanUS is the phase's mean observation in microseconds.
func (p phaseStat) meanUS() float64 {
	if p.n == 0 {
		return 0
	}
	return p.sec / p.n * 1e6
}

// phases are the core instruments' four phases. pad is a section of
// transform, so attributed time is transform + shrink + query.
type phases struct{ transform, shrink, pad, query phaseStat }

func (p phases) sub(q phases) phases {
	return phases{p.transform.sub(q.transform), p.shrink.sub(q.shrink), p.pad.sub(q.pad), p.query.sub(q.query)}
}

func (p phases) attributed() float64 { return p.transform.sec + p.shrink.sec + p.query.sec }

func (s scrape) phases() phases {
	const family = "incshrink_core_phase_seconds"
	one := func(phase string) phaseStat {
		l := `phase="` + phase + `"`
		return phaseStat{s.sum(family+"_sum", l), s.sum(family+"_count", l)}
	}
	return phases{one("transform"), one("shrink"), one("pad"), one("query")}
}

// roundSig rounds v to the given number of significant decimal digits.
func roundSig(v float64, digits int) float64 {
	r, err := strconv.ParseFloat(strconv.FormatFloat(v, 'e', digits-1, 64), 64)
	if err != nil {
		return v
	}
	return r
}

// coreLayer fills the core and mpc layers' metrics from the engine
// instruments' scrapes at the start and end of the measured phase.
// rootSeconds is the summed duration of the operations' root spans.
func coreLayer(out values, s0, s1 scrape, steps int, rootSeconds float64) {
	ph := s1.phases().sub(s0.phases())
	out["core.transform_us"] = ph.transform.meanUS()
	out["core.shrink_us"] = ph.shrink.meanUS()
	out["core.pad_us"] = ph.pad.meanUS()
	out["core.query_us"] = ph.query.meanUS()
	if rootSeconds > 0 {
		out["core.unattributed_frac"] = 1 - ph.attributed()/rootSeconds
	}
	// The cost counters are float sums shared by concurrently ingesting
	// views; nine significant digits drop the addition-order noise and keep
	// the counts exact.
	perStep := func(name string, scale float64) float64 {
		return roundSig((s1.sum(name)-s0.sum(name))*scale/float64(steps), 9)
	}
	out["mpc.gates_per_step"] = perStep("incshrink_mpc_predicted_seconds_total", mpc.DefaultCostModel().GatesPerSecond)
	out["mpc.wire_rounds_per_step"] = perStep("incshrink_mpc_wire_rounds_total", 1)
	out["mpc.wire_bytes_per_step"] = perStep("incshrink_mpc_wire_bytes_total", 1)
	out["mpc.predicted_vs_measured"] = s1.sum("incshrink_mpc_predicted_vs_measured", `op="Transform"`)
}
