package core

import (
	"math"

	"incshrink/internal/workload"
)

// The paper preset: the one place core reads a trace generator's config.

// DefaultConfig returns the paper's default setting for a workload: eps=1.5,
// theta=30, T = floor(30 / mean entries per step), the dataset-specific
// omega and b of Section 7 (omega=1,b=10 for multiplicity-1 workloads;
// omega=10,b=20 otherwise) and the workload's Shape. The paper's flush
// parameters f=2000 and s=15 are the Shrink protocols' constants
// (FlushEvery, FlushSize).
func DefaultConfig(wl workload.Config, seed int64) Config {
	cfg := Config{Epsilon: 1.5, Omega: 1, Budget: 10, T: 1, Theta: 30, Seed: seed, Shape: ShapeOf(wl)}
	if wl.MaxMultiplicity > 1 {
		cfg.Omega, cfg.Budget = 10, 20
	}
	if wl.PairRate > 0 {
		cfg.T = max(int(math.Floor(cfg.Theta/wl.PairRate)), 1)
	}
	return cfg
}

// ShapeOf declares a generated trace's public shape: its upload schedule,
// window, block sizes, relation kinds and data rate.
func ShapeOf(wl workload.Config) Shape {
	return Shape{UploadEvery: wl.UploadEvery, Within: wl.Within, MaxLeft: wl.MaxLeft, MaxRight: wl.MaxRight,
		RightPublic: wl.RightPublic, RightDrivesPairs: wl.RightDrivesPairs, PairRate: wl.PairRate}
}
