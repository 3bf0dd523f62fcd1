package analysis_test

import (
	"testing"

	"incshrink/internal/analysis"
	"incshrink/internal/analysis/analysistest"
)

// The fixture's rng_test.go holds an unwrapped source and expects no
// finding: rngdraw skips test files even when the driver reports on them.
func TestRNGDraw(t *testing.T) {
	analysistest.RunOpts(t, analysis.Options{IncludeTests: true}, analysis.RNGDraw, "incshrink/internal/mpc")
}

// internal/serve is not snapshot-covered: its workload randomness is
// input data, regenerated from derived seeds, never resumed mid-stream.
func TestRNGDrawSkipsUncoveredPackages(t *testing.T) {
	analysistest.Run(t, analysis.RNGDraw, "incshrink/internal/serve")
}
