package core

import (
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/workload"
)

// TestPriceListMatchesClosedForms pins the price list where it lives. Over
// the golden deployments, every Transform's, Shrink's and query's meter delta
// must equal mpc's closed forms at the public sizes the engine ran: the
// carry's length, the padded blocks a segment admits, the padded join output
// the delta compaction reads (omega slots per key), the cache length each
// read sorts (followed through the batch, fetch and flush events) and the
// view a query scans; Shrink adds one
// Laplace circuit per joint draw. A merged run is fed one segment per call —
// up to each step the Shrink protocol observes — so each call holds exactly
// one Transform. The horizon passes a flush, so the flush read is priced too.
func TestPriceListMatchesClosedForms(t *testing.T) {
	for _, c := range []struct {
		name  string
		wl    workload.Config
		proto protocol
		merge bool
	}{
		{"tpcds-timer", workload.TPCDS(2100, 41), timer, false},
		{"tpcds-ant", workload.TPCDS(2100, 41), ant, false},
		{"cpdb-ant", workload.CPDB(2100, 41), ant, false},
		{"tpcds-timer-merged", workload.TPCDS(2100, 41), timer, true},
	} {
		tr := mustTrace(t, c.wl)
		cfg := DefaultConfig(c.wl, 41)
		cfg.MergeWindows = c.merge
		f, s0, _ := newRecorded(t, cfg, c.proto)
		model := f.rt.Meter.Model()
		sortGates := func(n, bits int) float64 {
			return float64(mpc.SortCompareExchanges(n)) * float64(bits) * model.ANDGatesPerCompareExchangeBit
		}
		scanGates := func(n, bits int) float64 { return float64(n) * float64(bits) * model.ANDGatesPerScanBit }
		const stream, view = 64 * (workload.StreamArity + 1), 64 * workload.JoinArity
		block := [2]int{c.wl.MaxLeft, c.wl.MaxRight}
		if c.wl.RightPublic {
			block[right] = 0
		}

		var pending [2]int // rows arrived since the last upload
		flushes := 0
		for lo := 0; lo < len(tr.Steps); {
			hi := lo + 1
			for c.merge && hi < len(tr.Steps) && !f.observesAt(tr.Steps[hi-1].T) {
				hi++
			}
			batch := tr.Steps[lo:hi]
			lo = hi

			carried, cached := f.carry.Len(), f.cache.Len()
			transforms, events := f.transforms, len(s0.Events)
			var gates [3]float64
			for op := range gates {
				gates[op] = f.rt.Meter.Gates(mpc.Op(op))
			}
			f.StepBatch(batch)

			// Transform: the padded blocks the batch admitted.
			var fresh [2]int
			for _, st := range batch {
				pending[right] += len(st.Right)
				if f.uploadDue(st.T) {
					pending[left] = len(st.Left)
					for s := range fresh {
						fresh[s] += max(pending[s], block[s])
					}
					pending = [2]int{}
				}
			}
			var want float64
			if fresh != [2]int{} {
				if f.transforms != transforms+1 {
					t.Fatalf("%s: steps %d-%d ran %d Transforms, want one", c.name, batch[0].T, batch[len(batch)-1].T, f.transforms-transforms)
				}
				k := fresh[left] + fresh[right]
				n := carried + k
				slots := cfg.Omega * n
				want = sortGates(k, stream) + float64(mpc.MergeCompareExchanges(carried, k))*stream*model.ANDGatesPerCompareExchangeBit +
					scanGates(slots, view) + scanGates(mpc.CompactMoves(n), stream)
				if f.deltaCap(fresh[left], fresh[right]) > 0 {
					want += scanGates(2*slots, view)
				}
			}
			if got := f.rt.Meter.Gates(mpc.OpTransform) - gates[mpc.OpTransform]; got != want {
				t.Fatalf("%s: steps %d-%d: Transform charged %v gates, closed forms say %v", c.name, batch[0].T, batch[len(batch)-1].T, got, want)
			}

			// Shrink: the Laplace draws and a full sort of the cache per read,
			// its length followed through the events.
			want = 0
			for _, ev := range s0.Events[events:] {
				switch {
				case ev.Kind == mpc.EvRandomContributed && ev.Label == "noise:mag":
					want += model.ANDGatesPerLaplace
				case ev.Kind == mpc.EvBatchObserved:
					cached += ev.Size
				case ev.Kind == mpc.EvFetchObserved:
					want += sortGates(cached, view)
					spill := min(f.spillLen, cached-ev.Size)
					cached = min(f.prune, cached-ev.Size-spill)
				case ev.Kind == mpc.EvFlushObserved && ev.Label == "flush":
					want += sortGates(cached, view)
					cached = 0
					flushes++
				}
			}
			if cached != f.cache.Len() {
				t.Fatalf("%s: step %d: the events leave a cache of %d slots, the engine holds %d", c.name, batch[len(batch)-1].T, cached, f.cache.Len())
			}
			if got := f.rt.Meter.Gates(mpc.OpShrink) - gates[mpc.OpShrink]; got != want {
				t.Fatalf("%s: steps %d-%d: Shrink charged %v gates, closed forms say %v", c.name, batch[0].T, batch[len(batch)-1].T, got, want)
			}

			// Query: one full-width scan of the view.
			before := f.rt.Meter.Gates(mpc.OpQuery)
			f.Query()
			if got, want := f.rt.Meter.Gates(mpc.OpQuery)-before, scanGates(f.view.Len(), view); got != want {
				t.Fatalf("%s: step %d: a query over %d slots charged %v gates, closed form says %v", c.name, batch[len(batch)-1].T, f.view.Len(), got, want)
			}
		}
		if flushes == 0 {
			t.Fatalf("%s: no flush in %d steps: the flush read went unpriced", c.name, len(tr.Steps))
		}
	}
}
