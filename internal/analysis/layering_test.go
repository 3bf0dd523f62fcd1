package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSnapshotImportsOnlyStdlib: internal/snapshot is the wire format alone.
// Each type whose state a snapshot holds writes its own section with the
// format's Encoder and Decoder, so a section codec written inside the format
// package — one layout known by two packages — shows up as an import of the
// module there. Only the non-test files are held to it: the section tests
// live in the external snapshot_test package.
func TestSnapshotImportsOnlyStdlib(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(moduleRoot, "internal", "snapshot", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if path == ModulePath || strings.HasPrefix(path, ModulePath+"/") {
				t.Errorf("%s imports %s: internal/snapshot is the wire format, and the state's owner writes its section", fset.Position(imp.Pos()), path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test file in internal/snapshot: the glob no longer finds the package")
	}
}

// TestReplaySeamTestOnly: core.Framework's replay field makes the Shrink
// protocols take their DP releases from a list, which turns the engine into
// the Theorem-7/8 simulator. A production path that set it would force the
// releases and void the DP guarantee, so no non-test file of the module may
// write the field: assign it, name it in a composite literal or take its
// address.
func TestReplaySeamTestOnly(t *testing.T) {
	fset, units := loadModule(t)
	isSeam := func(u *Unit, e ast.Expr) bool {
		var id *ast.Ident
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			id = e.Sel
		case *ast.Ident:
			id = e
		default:
			return false
		}
		v, ok := u.Info.Uses[id].(*types.Var)
		return ok && v.IsField() && v.Name() == "replay" && v.Pkg().Path() == ModulePath+"/internal/core"
	}
	found := false
	for _, u := range units {
		for _, f := range u.Files {
			if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var written []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					written = n.Lhs
				case *ast.KeyValueExpr:
					written = []ast.Expr{n.Key}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						written = []ast.Expr{n.X}
					}
				case *ast.SelectorExpr:
					found = found || isSeam(u, n)
				}
				for _, e := range written {
					if isSeam(u, e) {
						t.Errorf("%s: a non-test file writes core.Framework.replay, which forces the DP releases", fset.Position(e.Pos()))
					}
				}
				return true
			})
		}
	}
	if !found {
		t.Fatal("no non-test file reads core.Framework.replay: the guard no longer finds the seam")
	}
}

// TestWorkloadConfigStaysInTheGenerator: an engine is built from core.Config
// alone — what a deployment chooses and the Shape it declares — so the trace
// generator's configuration is read only by the generator, by the simulator
// and experiments that run its traces, by the commands and by core's paper
// preset (internal/core/preset.go). A non-test expression of type
// workload.Config anywhere else — a field, a parameter, a call — fails.
func TestWorkloadConfigStaysInTheGenerator(t *testing.T) {
	fset, units := loadModule(t)
	allowed := func(file string) bool {
		rel, err := filepath.Rel(moduleRoot, file)
		rel = filepath.ToSlash(rel)
		return err == nil && (rel == "internal/core/preset.go" || strings.HasPrefix(rel, "cmd/") ||
			strings.HasPrefix(rel, "internal/workload/") || strings.HasPrefix(rel, "internal/sim/") ||
			strings.HasPrefix(rel, "internal/experiments/"))
	}
	isConfig := func(tp types.Type) bool {
		n, ok := tp.(*types.Named)
		return ok && n.Obj().Name() == "Config" && n.Obj().Pkg().Path() == ModulePath+"/internal/workload"
	}
	found := false
	for _, u := range units {
		for _, f := range u.Files {
			name := fset.Position(f.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				e, ok := n.(ast.Expr)
				if !ok || !isConfig(u.Info.Types[e].Type) {
					return true
				}
				if allowed(name) {
					found = true
				} else {
					t.Errorf("%s: a workload.Config outside the generator's packages: build the engine from core.Config", fset.Position(e.Pos()))
				}
				return false
			})
		}
	}
	if !found {
		t.Fatal("no non-test file uses workload.Config: the guard no longer finds the type")
	}
}

// TestOperatorsDoNotMeter: internal/core's price list is the one place the
// data plane is priced. The operators of internal/oblivious and the cache of
// internal/securearray execute and never charge, so no non-test file there
// calls a method of mpc.Meter — except the reference join,
// TruncatedSortMergeJoinInto, and the probe-only CountBuffer, whose frozen
// signatures still take a meter and price themselves.
func TestOperatorsDoNotMeter(t *testing.T) {
	fset, units := loadModule(t)
	isMeter := func(tp types.Type) bool {
		if p, ok := tp.(*types.Pointer); ok {
			tp = p.Elem()
		}
		n, ok := tp.(*types.Named)
		return ok && n.Obj().Name() == "Meter" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == ModulePath+"/internal/mpc"
	}
	allowed := map[string]bool{"TruncatedSortMergeJoinInto": true, "CountBuffer": true}
	checked, found := 0, 0
	for _, u := range units {
		if p := u.Pkg.Path(); p != ModulePath+"/internal/oblivious" && p != ModulePath+"/internal/securearray" {
			continue
		}
		for _, f := range u.Files {
			if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			checked++
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				pricesItself := ok && fn.Recv == nil && allowed[fn.Name.Name]
				ast.Inspect(d, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					m, ok := u.Info.Uses[sel.Sel].(*types.Func)
					if !ok {
						return true
					}
					recv := m.Type().(*types.Signature).Recv()
					switch {
					case recv == nil || !isMeter(recv.Type()):
					case pricesItself:
						found++
					default:
						t.Errorf("%s: %s calls mpc.Meter.%s: the operators execute, and internal/core's price list charges them", fset.Position(sel.Pos()), u.Pkg.Path(), m.Name())
					}
					return true
				})
			}
		}
	}
	if checked == 0 || found == 0 {
		t.Fatalf("checked %d files and found %d self-pricing charges: the guard no longer sees the operators", checked, found)
	}
}
