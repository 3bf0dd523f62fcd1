package analysis_test

import (
	"testing"

	"incshrink/internal/analysis"
	"incshrink/internal/analysis/analysistest"
)

func TestGoLeak(t *testing.T) {
	analysistest.Run(t, analysis.GoLeak, "incshrink/internal/goleak")
}

// Binaries and examples are excluded: a process-lifetime goroutine is
// theirs to start.
func TestGoLeakSkipsBinaries(t *testing.T) {
	analysistest.Run(t, analysis.GoLeak, "incshrink/cmd/bench")
}
