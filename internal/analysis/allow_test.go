package analysis_test

import (
	"testing"

	"incshrink/internal/analysis"
	"incshrink/internal/analysis/analysistest"
)

// The escape-hatch misuse checks (missing reason, unknown analyzer) ride
// in the detclock and rngdraw fixtures; this covers an allow that
// suppresses nothing.
func TestUnusedAllowReported(t *testing.T) {
	analysistest.Run(t, analysis.DetClock, "incshrink/internal/unusedallow")
}
