package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeakExclude lists the module-relative prefixes goleak does NOT
// police. Binaries and examples may run fire-and-forget goroutines (an
// HTTP server, a signal handler) whose lifetime is the process; library
// packages may not — an unjoined goroutine there outlives the operation
// that spawned it, races teardown (pool reclamation, checkpoint close),
// and turns deterministic tests flaky.
var GoLeakExclude = []string{"cmd", "examples"}

// GoLeak requires every go statement in library packages to have a
// visible join: a sync.WaitGroup handed to the spawned callee, a
// Done/Wait pair on a local WaitGroup, or a channel the spawning function
// demonstrably receives. The check is syntactic and local by design —
// cross-function protocols (a struct-owned WaitGroup waited on in Close)
// are accepted on the Done side and audited where the owner Waits.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "every go statement in library packages needs a matching join " +
		"(WaitGroup passed to the callee, local Done/Wait, or a channel the spawner receives); " +
		"unjoined goroutines outlive their operation and race teardown",
	Run: runGoLeak,
}

func runGoLeak(pass *Pass) error {
	if !inModule(pass.Pkg.Path()) || underAny(pass.Pkg.Path(), GoLeakExclude) {
		return nil
	}
	for _, f := range pass.Files {
		// Test goroutines die with the test binary and run under the race
		// detector and per-test timeouts; the leak contract is about
		// library lifetimes, so goleak skips _test.go files.
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					checkGoStmt(pass, gs, fd)
				}
				return true
			})
		}
	}
	return nil
}

// checkGoStmt classifies one go statement as joined or reports it.
func checkGoStmt(pass *Pass, gs *ast.GoStmt, encl *ast.FuncDecl) {
	// Rule 1: a (*)sync.WaitGroup argument hands join responsibility to
	// the callee — the serve-registry `go v.ingestLoop(&r.wg)` shape.
	for _, a := range gs.Call.Args {
		if isWaitGroup(pass.TypesInfo.TypeOf(a)) {
			return
		}
	}
	fl, ok := gs.Call.Fun.(*ast.FuncLit)
	if !ok {
		pass.Reportf(gs.Pos(),
			"unjoined goroutine: the spawned call receives no *sync.WaitGroup and has no visible join; "+
				"pass a WaitGroup, signal a channel the spawner receives, or //lint:allow goleak <reason>")
		return
	}
	joined := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// wg.Done() — if wg is a plain local, demand wg.Wait() in the
			// enclosing function; a struct-owned WaitGroup (r.wg.Done())
			// is joined by its owner elsewhere and accepted here.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" &&
				isWaitGroup(pass.TypesInfo.TypeOf(sel.X)) {
				if obj := plainIdentObj(pass, sel.X); obj != nil {
					joined = methodCallOn(pass, encl.Body, obj, "Wait")
				} else {
					joined = true
				}
			}
			// close(ch) — ownership signal: demand a receive if local.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					joined = channelJoined(pass, encl, n.Args[0])
				}
			}
		case *ast.SendStmt:
			joined = channelJoined(pass, encl, n.Chan)
		}
		return !joined
	})
	if !joined {
		pass.Reportf(gs.Pos(),
			"unjoined goroutine: closure neither signals a WaitGroup the spawner waits on nor a channel it receives; "+
				"add a join or //lint:allow goleak <reason>")
	}
}

// channelJoined accepts a close/send on ch as a join if the spawning
// function receives from it (directly or in a select), or if the channel
// is non-local (a parameter or struct field: the receive end is owned by
// the caller's protocol).
func channelJoined(pass *Pass, encl *ast.FuncDecl, ch ast.Expr) bool {
	obj := plainIdentObj(pass, ch)
	if obj == nil {
		return true // r.done etc.: owner's protocol
	}
	if obj.Pos() < encl.Body.Pos() || obj.Pos() > encl.Body.End() {
		return true // parameter or package-level channel
	}
	found := false
	ast.Inspect(encl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = plainIdentObj(pass, n.X) == obj
			}
		case *ast.RangeStmt:
			if plainIdentObj(pass, n.X) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// methodCallOn reports whether body contains obj.<name>().
func methodCallOn(pass *Pass, body *ast.BlockStmt, obj types.Object, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
			found = plainIdentObj(pass, sel.X) == obj
		}
		return !found
	})
	return found
}

// plainIdentObj resolves e to its object when e is a bare identifier
// (possibly parenthesized or address-taken); selector chains return nil.
func plainIdentObj(pass *Pass, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	if id, ok := e.(*ast.Ident); ok {
		return pass.TypesInfo.Uses[id]
	}
	return nil
}

// isWaitGroup matches sync.WaitGroup and *sync.WaitGroup (including the
// analysistest sync stub).
func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	pkgPath, name, ok := namedTypePath(t)
	return ok && name == "WaitGroup" && pkgPath == "sync"
}
