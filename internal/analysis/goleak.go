package analysis

import "go/ast"

// GoLeak bans the go statement in library packages (everything outside
// DetClockExclude). An unjoined goroutine there outlives the operation that
// spawned it, races teardown (pool reclamation, checkpoint close) and turns
// deterministic tests flaky — and whether a goroutine is joined is a
// protocol no local syntax check can prove. So every spawn is a finding
// unless it states its join where it starts, as
// `//lint:allow goleak <how it is joined>`, which a reviewer checks once.
// Test files are skipped: their goroutines die with the test binary under
// the race detector and per-test timeouts.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "no go statement in library packages unless //lint:allow goleak names its join; " +
		"unjoined goroutines outlive their operation and race teardown",
	Run: runGoLeak,
}

func runGoLeak(pass *Pass) error {
	if !inModule(pass.Pkg.Path()) || underAny(pass.Pkg.Path(), DetClockExclude) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(gs.Pos(),
					"go statement in a library package: state its join where it starts as //lint:allow goleak <how it is joined>")
			}
			return true
		})
	}
	return nil
}
