package analysis_test

import (
	"testing"

	"incshrink/internal/analysis"
	"incshrink/internal/analysis/analysistest"
)

func TestOblivTaint(t *testing.T) {
	old := analysis.OblivTaintSanctioned
	analysis.OblivTaintSanctioned = append(append([]string{}, old...),
		"internal/securearray.sanctionedCompareExchange")
	defer func() { analysis.OblivTaintSanctioned = old }()
	analysis.OblivTaintColumnParams["internal/securearray.branchingKernel"] = []string{"flag"}
	defer delete(analysis.OblivTaintColumnParams, "internal/securearray.branchingKernel")
	analysistest.Run(t, analysis.OblivTaint, "incshrink/internal/securearray")
}
