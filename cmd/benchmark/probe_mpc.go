package main

import (
	"math/rand"

	"incshrink/internal/dp"
	"incshrink/internal/mpc"
	"incshrink/internal/secretshare"
)

// probeMPC times the in-process runtime's two primitives — a counter
// re-share plus its recovery (two word exchanges) and one joint Laplace draw
// (two more) — and, beneath them, the bare secret-sharing and noise math.
func probeMPC(pc *probeCtx, out values) error {
	rt := mpc.NewRuntime(mpc.DefaultCostModel(), pc.seed)
	var err error
	out["mpc.exchange_ns"] = perCallNS(pc.calls(20000), func() {
		rt.ShareToServers("c", 42)
		if _, e := rt.RecoverInside("c"); e != nil {
			err = e
		}
	}) / 2
	var noise float64
	out["mpc.laplace_ns"] = perCallNS(pc.calls(20000), func() { noise += rt.JointLaplace(2.5, mpc.OpShrink) })

	rng := rand.New(rand.NewSource(pc.seed))
	var word secretshare.Word
	out["secretshare.share_recover_ns"] = perCallNS(pc.calls(200000), func() {
		word ^= secretshare.Recover(secretshare.Share(word+1, rng))
	})
	out["dp.laplace_ns"] = perCallNS(pc.calls(200000), func() { noise += dp.Laplace(2.5, rng) })
	if noise == 0 || word == 0 {
		probeSink++
	}
	return err
}
