package mpc

import (
	"math/rand"

	"incshrink/internal/dp"
)

// PublicParams are the quantities Theorem 7 assumes publicly available when
// constructing the simulator of Table 1: the privacy parameter, the owners'
// block sizes, the contribution bound, the cache maintenance parameters and
// the update interval. Everything here is configuration, independent of the
// data.
type PublicParams struct {
	// UploadEvery is the owners' public upload schedule.
	UploadEvery int
	// BatchSize is the public padded size of each Transform output batch.
	BatchSize int
	// Batches, when non-nil, lists each Transform's output size in upload
	// order instead: over a public relation only the private side is padded,
	// so the sizes follow the public arrivals.
	Batches []int
	// T is the sDPTimer update interval.
	T int
	// Spill is the fixed per-update spill size (0 = disabled).
	Spill int
	// Prune is the public cache length each view update keeps.
	Prune int
	// Steps is the horizon to simulate.
	Steps int
}

// The paper's cache flush (Section 5.2.1), f and s: the DP Shrink protocols
// run it at the end of every FlushEvery-th step, moving the FlushSize head of
// the sorted cache to the view and recycling the rest. Both are public
// parameters of the schedule; internal/core's flush and this simulator read
// them from here.
const (
	FlushEvery = 2000
	FlushSize  = 15
)

// simCache tracks the public length of the secure cache from the public
// parameters and the DP outputs alone: the flush size is the one event size
// that depends on it.
type simCache struct {
	pp      PublicParams
	len     int
	batches int
}

// batch adds the next Transform's output and returns its size.
func (c *simCache) batch() int {
	n := c.pp.BatchSize
	if c.pp.Batches != nil {
		n = c.pp.Batches[c.batches]
	}
	c.batches++
	c.len += n
	return n
}

// sync applies a view update's fetch (clamped to the cache, as the fetch
// event records it), its clamped spill and the prune.
func (c *simCache) sync(fetch int) {
	spill := min(c.pp.Spill, c.len-fetch)
	c.len = min(c.pp.Prune, c.len-fetch-spill)
}

// flush appends step t's flush event, after the step's Shrink events, and
// empties the cache.
func (c *simCache) flush(tr *Transcript, w *simWire, t int) {
	if t == 0 || t%FlushEvery != 0 {
		return
	}
	tr.Append(w.stamp(Event{Kind: EvFlushObserved, Time: t, Size: min(FlushSize, c.len), Label: "flush"}))
	c.len = 0
}

// simWire tracks the cumulative wire tally of the simulated party. Every
// runtime round costs each party what PredictExchanges prices for its word
// count; the simulator advances the tally on the protocol's public round
// schedule — the silent in-protocol recoveries included, which ride in
// their rounds without emitting events — and stamps each emitted event with
// the running total, so the Theorem-7/8 structural comparison also pins the
// wire shape of the real execution.
type simWire struct{ rounds, bytes uint64 }

// round advances the tally by one round of the given word count.
func (w *simWire) round(words int) {
	p := PredictExchanges(words)
	w.rounds += p.Rounds
	w.bytes += p.Bytes
}

func (w *simWire) stamp(ev Event) Event {
	ev.WireRounds = w.rounds
	ev.WireBytes = w.bytes
	return ev
}

// SimulateTimer is the simulator S of Table 1 for the sDPTimer deployment:
// given only the public parameters and the outputs of the DP mechanism
// M_timer — the noisy fetch sizes {(t, v_t)} — it emits a transcript whose
// structure matches a real protocol execution event for event, with every
// share and random contribution drawn uniformly at random.
//
// Theorem 7's claim is that this transcript is computationally
// indistinguishable from a real server's view; the leakage regression test
// in internal/core checks the structural half exactly (same event kinds,
// times, sizes, labels and wire tallies) and the distributional half
// statistically (uniform share values on both sides).
func SimulateTimer(pp PublicParams, fetches map[int]int, party PartyID, seed int64) *Transcript {
	rng := dp.NewCountingRNG(rand.New(rand.NewSource(seed)))
	tr := &Transcript{Party: party}
	var w simWire
	cache := simCache{pp: pp}

	random := func(t int, label string) {
		tr.Append(w.stamp(Event{Kind: EvRandomContributed, Time: t, Share: rng.Uint32(), Label: label}))
	}
	reshareCounter := func(t int) {
		random(t, "reshare:c")
		tr.Append(w.stamp(Event{Kind: EvShareReceived, Time: t, Share: rng.Uint32(), Label: "c"}))
	}

	// Framework construction: the counter is shared once before time starts
	// (a one-word round; nothing to recover yet).
	w.round(1)
	reshareCounter(0)

	for t := 0; t < pp.Steps; t++ {
		// Transform runs on the owners' public schedule: one round carrying
		// the silent counter recovery (Alg. 1:4) and the counter re-share,
		// then the exhaustively padded batch entering the cache.
		if (t+1)%pp.UploadEvery == 0 {
			w.round(2)
			reshareCounter(t)
			tr.Append(w.stamp(Event{Kind: EvBatchObserved, Time: t, Size: cache.batch(), Label: "transform"}))
		}
		// sDPTimer fires at multiples of T: one round carrying the silent
		// counter recovery (Alg. 2:3), the two joint noise words and the
		// counter reset's re-share; then the noise contributions, the
		// fixed-size spill, the DP-sized fetch, and the reset. The flush, if
		// the step is due one, comes last.
		if t > 0 && pp.T > 0 && t%pp.T == 0 {
			w.round(4)
			random(t, "noise:mag")
			random(t, "noise:sign")
			if pp.Spill > 0 {
				tr.Append(w.stamp(Event{Kind: EvFlushObserved, Time: t, Size: pp.Spill, Label: "spill"}))
			}
			tr.Append(w.stamp(Event{Kind: EvFetchObserved, Time: t, Size: fetches[t], Label: "shrink"}))
			cache.sync(fetches[t])
			reshareCounter(t)
		}
		cache.flush(tr, &w, t)
	}
	return tr
}

// ANTOutput is one element of the M_ant mechanism's output stream: the
// update time and the released noisy cardinality. Between updates the
// mechanism outputs nothing (the per-step SVT check itself emits only the
// parties' own random contributions).
type ANTOutput struct {
	Time int
	Size int
}

// SimulateANT is the Theorem-8 simulator: it reproduces a server's view of
// an sDPANT deployment from the public parameters and the M_ant outputs —
// the update times and released sizes. Per Theorem 8's modification of
// Table 1, the simulator additionally emits one random value per update to
// stand in for the refreshed noisy-threshold share.
func SimulateANT(pp PublicParams, updates []ANTOutput, party PartyID, seed int64) *Transcript {
	rng := dp.NewCountingRNG(rand.New(rand.NewSource(seed)))
	tr := &Transcript{Party: party}
	var w simWire
	cache := simCache{pp: pp}

	// noise models the two contributions of one joint Laplace draw.
	noise := func(t int) {
		for _, label := range []string{"noise:mag", "noise:sign"} {
			tr.Append(w.stamp(Event{Kind: EvRandomContributed, Time: t, Share: rng.Uint32(), Label: label}))
		}
	}
	// reshare models the contribution and the received share of one
	// in-protocol re-share.
	reshare := func(t int, key string) {
		tr.Append(w.stamp(Event{Kind: EvRandomContributed, Time: t, Share: rng.Uint32(), Label: "reshare:" + key}))
		tr.Append(w.stamp(Event{Kind: EvShareReceived, Time: t, Share: rng.Uint32(), Label: key}))
	}

	// Construction: the counter share (a one-word round), then the initial
	// noisy threshold — its joint noise and its share in one round.
	w.round(1)
	reshare(0, "c")
	w.round(3)
	noise(0)
	reshare(0, "theta")

	next := 0
	for t := 0; t < pp.Steps; t++ {
		if (t+1)%pp.UploadEvery == 0 {
			w.round(2) // Alg. 1:4 silent counter recovery + the re-share
			reshare(t, "c")
			tr.Append(w.stamp(Event{Kind: EvBatchObserved, Time: t, Size: cache.batch(), Label: "transform"}))
		}
		// The SVT condition check is one round every step: the silent
		// recoveries of the counter and the noisy threshold, and the joint
		// noise.
		w.round(4)
		noise(t)
		if next < len(updates) && updates[next].Time == t {
			// The release is one round: release noise, the refreshed
			// threshold's noise, and the re-shares of threshold and counter.
			w.round(6)
			noise(t) // the release noise
			if pp.Spill > 0 {
				tr.Append(w.stamp(Event{Kind: EvFlushObserved, Time: t, Size: pp.Spill, Label: "spill"}))
			}
			tr.Append(w.stamp(Event{Kind: EvFetchObserved, Time: t, Size: updates[next].Size, Label: "shrink"}))
			cache.sync(updates[next].Size)
			noise(t) // the refreshed threshold's noise
			reshare(t, "theta")
			reshare(t, "c")
			next++
		}
		cache.flush(tr, &w, t)
	}
	return tr
}

// StructurallyEqual compares two transcripts on everything except the share
// values (which are uniform in both the real execution and the simulation):
// event kinds, logical times, public sizes, labels and cumulative wire
// tallies must agree exactly. Including the tallies makes the Theorem-7/8
// regression also a pin on the protocol's round and byte schedule — a
// protocol change that moves frames without moving events still fails.
func StructurallyEqual(a, b *Transcript) (bool, int) {
	if len(a.Events) != len(b.Events) {
		n := len(a.Events)
		if len(b.Events) < n {
			n = len(b.Events)
		}
		return false, n
	}
	for i := range a.Events {
		x, y := a.Events[i], b.Events[i]
		if x.Kind != y.Kind || x.Time != y.Time || x.Size != y.Size || x.Label != y.Label ||
			x.WireRounds != y.WireRounds || x.WireBytes != y.WireBytes {
			return false, i
		}
	}
	return true, -1
}
