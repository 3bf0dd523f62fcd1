package main

import (
	"math/rand"

	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/table"
)

// The public padded sizes of one tpcds_step Transform: a 96-record upload
// plus the 864-slot active window on the left, 8 + 72 on the right, and the
// delta cap the join output is compacted to.
const (
	probeJoinLeft  = 960
	probeJoinRight = 80
	probeDeltaCap  = 104
	// probeScanSlots is the view the scan probe counts over: the size the
	// cpdb_query view reaches, about 6 MB of payload, beyond L2.
	probeScanSlots = 120000
	// joinTupleBits is the secret payload width of a view entry.
	joinTupleBits = 64 * 4
)

// probeRecords draws n {key, time} records; about one key in three repeats
// a key of the other side so the join emits real pairs.
func probeRecords(rng *rand.Rand, n int, firstID int64, keySpace int64) []oblivious.Record {
	out := make([]oblivious.Record, n)
	for i := range out {
		out[i] = oblivious.Record{ID: firstID + int64(i), Row: table.Row{rng.Int63n(keySpace), rng.Int63n(10)}}
	}
	return out
}

var probeSink int

func probeOblivious(pc *probeCtx, out values) error {
	rng := rand.New(rand.NewSource(pc.seed))
	left := probeRecords(rng, probeJoinLeft, 1, 3*probeJoinLeft)
	right := probeRecords(rng, probeJoinRight, probeJoinLeft+1, 3*probeJoinLeft)
	within := func(l, r oblivious.Record) bool {
		d := r.Row[1] - l.Row[1]
		return d >= 0 && d <= 10
	}
	meter := mpc.NewMeter(mpc.DefaultCostModel())
	joined := oblivious.NewBuffer(4, 0)
	join := func() {
		joined.Reset()
		oblivious.TruncatedSortMergeJoinInto(joined, left, right, 0, 0, within, 1, meter, mpc.OpTransform)
	}
	join() // warm the pools and the memoized comparator network
	g0 := meter.Gates(mpc.OpTransform)
	join()
	gates := meter.Gates(mpc.OpTransform) - g0
	joinNS := perCallNS(pc.calls(50), join)
	out["oblivious.join_us"] = joinNS / 1e3
	out["oblivious.join_gates"] = gates
	out["oblivious.join_ns_per_gate"] = joinNS / gates

	delta, overflow := oblivious.NewBuffer(4, 0), oblivious.NewBuffer(4, 0)
	out["oblivious.compact_us"] = perCallNS(pc.calls(400), func() {
		delta.Reset()
		overflow.Reset()
		oblivious.TightCompactInto(joined, probeDeltaCap, delta, overflow, meter, mpc.OpTransform, joinTupleBits)
	}) / 1e3

	slots := probeScanSlots
	if pc.quick {
		slots /= 50
	}
	view := oblivious.NewBuffer(4, slots)
	for i := 0; i < slots; i++ {
		view.AppendSlot(table.Row{int64(i), 0, int64(i), rng.Int63n(10)}, i%2 == 0, int64(i), int64(i))
	}
	all := func(table.Row) bool { return true }
	out["oblivious.scan_ns_per_slot"] = perCallNS(pc.calls(50), func() {
		probeSink += oblivious.CountBuffer(view, all, meter, mpc.OpQuery)
	}) / float64(slots)

	// Process-wide since start: the run's workload repetitions included.
	if hits, misses, _, _ := oblivious.CacheStats(); hits+misses > 0 {
		out["oblivious.network_cache_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	return nil
}
