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
