package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AtomicMix flags mixed atomic/plain access: once any site in a package
// reaches a variable or field through sync/atomic (atomic.AddInt64(&x.n, 1)
// and friends), every plain read or write of that same variable elsewhere
// in the package is a data race the race detector only catches when the
// schedule cooperates. The fix is to route every access through
// sync/atomic — or better, migrate the field to the typed atomic.Int64
// family, which makes plain access unrepresentable (the style the obs
// registry and the per-view depth counters already use).
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "a variable or field accessed through sync/atomic must never be read or written " +
		"plainly elsewhere in the package; mixed access is a data race",
	Run: runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	if !inModule(pass.Pkg.Path()) {
		return nil
	}
	// Pass 1: collect the objects whose address feeds a sync/atomic call,
	// and remember those idents so pass 2 does not flag the atomic sites
	// themselves.
	atomicObjs := map[types.Object]token.Pos{}
	atomicSite := map[*ast.Ident]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			u, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				return true
			}
			obj := addressedObj(pass, u.X)
			if obj == nil {
				return true
			}
			if first, seen := atomicObjs[obj]; !seen || call.Pos() < first {
				atomicObjs[obj] = call.Pos()
			}
			markIdents(u.X, atomicSite)
			return true
		})
	}
	if len(atomicObjs) == 0 {
		return nil
	}
	// Pass 2: any other appearance of those objects is a plain access.
	type finding struct {
		pos token.Pos
		obj types.Object
	}
	var found []finding
	for _, f := range pass.Files {
		// Struct-literal keys (S{n: 0}) are construction, not access: the
		// value is unpublished until the literal is stored.
		ast.Inspect(f, func(n ast.Node) bool {
			if kv, ok := n.(*ast.KeyValueExpr); ok {
				if id, isIdent := kv.Key.(*ast.Ident); isIdent {
					if v, isVar := pass.TypesInfo.Uses[id].(*types.Var); isVar && v.IsField() {
						atomicSite[id] = true
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || atomicSite[id] {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				return true
			}
			if _, hot := atomicObjs[obj]; hot {
				found = append(found, finding{id.Pos(), obj})
			}
			return true
		})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	for _, f := range found {
		pass.Reportf(f.pos,
			"plain access to %s, which is accessed through sync/atomic at %s; "+
				"mixed atomic/plain access is a data race — use atomic.Load/Store here or migrate the field to the typed atomic.Int64 family",
			f.obj.Name(), pass.Fset.Position(atomicObjs[f.obj]))
	}
	return nil
}

// addressedObj resolves &x or &x.f to the variable/field object, skipping
// element addresses (&a[i]) where per-element tracking would be needed.
func addressedObj(pass *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		if v, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// markIdents records every identifier under an atomic call's address
// argument, so `&x.f` does not count x or f as plain accesses.
func markIdents(e ast.Expr, set map[*ast.Ident]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			set[id] = true
		}
		return true
	})
}
