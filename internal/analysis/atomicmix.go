package analysis

import "go/ast"

// AtomicMix bans the package-level functions of sync/atomic
// (atomic.AddInt64(&x.n, 1) and friends) anywhere in the module. A variable
// reached through them can still be read or written plainly elsewhere — a
// data race the race detector only catches when the schedule cooperates.
// The typed atomic.Int64 family makes that plain access unrepresentable,
// and go vet's copylocks rejects copying one, so the typed form is the only
// one the module uses.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "no package-level sync/atomic function: use the typed atomic.Int64 family, " +
		"on which a plain (racing) access cannot be written",
	Run: runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	if !inModule(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if fn := pkgFunc(pass.TypesInfo.Uses[id]); fn != nil && fn.Pkg().Path() == "sync/atomic" {
				pass.Reportf(id.Pos(),
					"atomic.%s admits a plain access to the same variable elsewhere; use the typed atomic.Int64 family", fn.Name())
			}
			return true
		})
	}
	return nil
}
