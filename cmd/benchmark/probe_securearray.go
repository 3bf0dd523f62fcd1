package main

import (
	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/securearray"
	"incshrink/internal/table"
)

// probeCacheBatches is the secure cache's public length at a tpcds_step
// view update, in delta batches: ten Transform outputs of probeDeltaCap.
const probeCacheBatches = 10

// probeSecureArray times one view synchronization: a Transform's batch
// appended to the cache, then the cache sorted real-first, a DP-sized prefix
// moved to the view and the tail pruned back to the public bound.
func probeSecureArray(pc *probeCtx, out values) error {
	meter := mpc.NewMeter(mpc.DefaultCostModel())
	batch := oblivious.NewBuffer(4, probeDeltaCap)
	for i := 0; i < probeDeltaCap; i++ {
		batch.AppendSlot(table.Row{int64(i), 0, int64(i), 1}, i < 3, int64(i), int64(i))
	}
	cache := securearray.New(4, joinTupleBits, meter)
	view := securearray.NewView(4)
	for i := 0; i < probeCacheBatches-1; i++ {
		cache.Append(batch)
	}
	keep := (probeCacheBatches - 1) * probeDeltaCap
	out["securearray.sync_us"] = perCallNS(pc.calls(50), func() {
		cache.Append(batch)
		cache.ReadAndPruneInto(view, 27, 0, keep)
	}) / 1e3
	return nil
}
