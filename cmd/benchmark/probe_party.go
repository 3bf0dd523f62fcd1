package main

import (
	"fmt"

	"incshrink/internal/party"
)

// probeParty runs a short loopback session and holds its measured wire cost
// to the closed-form prediction; both ratios must be exactly 1.
func probeParty(pc *probeCtx, out values) error {
	r0, r1, err := party.RunLoopbackPair(party.Config{Seed: pc.seed, Steps: pc.calls(2000), SnapshotAt: -1})
	if err != nil {
		return err
	}
	if r0.WireRounds != r1.WireRounds || r0.WireBytes != r1.WireBytes {
		return fmt.Errorf("party probe: the two parties' wire tallies differ: %d/%d rounds, %d/%d bytes",
			r0.WireRounds, r1.WireRounds, r0.WireBytes, r1.WireBytes)
	}
	out["party.measured_vs_predicted_rounds"] = float64(r0.WireRounds) / float64(r0.PredictedRounds)
	out["party.measured_vs_predicted_bytes"] = float64(r0.WireBytes) / float64(r0.PredictedBytes)
	return nil
}
