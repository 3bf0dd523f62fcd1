package analysis

import (
	"go/ast"
	"go/types"
)

// RNGDrawPackages lists the module-relative prefixes of the snapshot-covered
// packages: the ones whose state, RNG stream positions included, rides in a
// snapshot, so a restored engine resumes bit-identically. "" is the root.
var RNGDrawPackages = []string{"", "internal/core", "internal/dp", "internal/mpc",
	"internal/gmw", "internal/secretshare", "internal/snapshot", "internal/oblivious",
	"internal/securearray", "internal/table", "internal/party"}

// RNGDraw bans math/rand{,/v2} functions and methods from the non-test files
// of RNGDrawPackages other than internal/dp, whose dp.Stream is the one
// seeded stream: it counts every draw and writes its own position into its
// owner's snapshot section. Any other source draws words no snapshot
// records, and the next restore forks the noise stream. A test-local source
// never reaches a snapshot, so test files are skipped.
var RNGDraw = &Analyzer{
	Name: "rngdraw",
	Doc: "no math/rand in snapshot-covered packages but internal/dp: build protocol randomness " +
		"with dp.NewStream, which checkpoints its own position so restores resume exactly",
	Run: runRNGDraw,
}

func runRNGDraw(pass *Pass) error {
	if !underAny(pass.Pkg.Path(), RNGDrawPackages) || underAny(pass.Pkg.Path(), []string{"internal/dp"}) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, _ := n.(*ast.Ident)
			if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok && fn.Pkg() != nil &&
				(fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") {
				pass.Reportf(id.Pos(), "%s.%s in snapshot-covered package %s: draw from dp.NewStream, whose position snapshots record",
					fn.Pkg().Path(), fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
