package main

import (
	"time"

	"incshrink/internal/gmw"
	"incshrink/internal/wire"
)

// probeGMW evaluates compare-exchanges between two gmw.Evals over an
// in-process loopback pair: the protocol's own cost with the transport
// reduced to a channel handoff.
func probeGMW(pc *probeCtx, out values) error {
	gates := pc.calls(200)
	c0, c1 := wire.Loopback(256)
	defer c0.Close()
	defer c1.Close()
	conns := [2]wire.Conn{c0, c1}
	var deal, eval time.Duration
	err := both(func(role int) error {
		ev := gmw.NewEval(role, conns[role], 1)
		t0 := time.Now()
		var err error
		if role == 0 {
			err = ev.DealTriples(gmw.NewDealer(pc.seed), cexANDs*gates)
		} else {
			err = ev.RecvTriples()
		}
		if err != nil {
			return err
		}
		x, y := gmw.ShareOfWord(role, 7, 0xA5A5A5A5), gmw.ShareOfWord(role, 3, 0x5A5A5A5A)
		t1 := time.Now()
		for i := 0; i < gates; i++ {
			x, y = ev.CompareExchange(y, x)
		}
		if role == 0 {
			deal, eval = t1.Sub(t0), time.Since(t1)
		}
		return ev.Err()
	})
	if err != nil {
		return err
	}
	ands := float64(cexANDs * gates)
	out["gmw.deal_ns_per_triple"] = float64(deal.Nanoseconds()) / ands
	out["gmw.and_ns_loopback"] = float64(eval.Nanoseconds()) / ands
	out["gmw.rounds_per_cex"] = float64(c0.Stats().Rounds) / float64(gates)
	return nil
}
