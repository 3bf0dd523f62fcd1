package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// A Unit is one compilation unit as go vet analyzes it: a package's
// non-test files together with its in-package tests, or its external test
// package (whose path ends in "_test"). Every loaded file is in exactly one
// unit.
type Unit struct {
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Load parses and type-checks every Go package under root and returns its
// units in import-path order. A directory's import path is prefix joined
// with its root-relative path. Like cmd/go, Load skips directories named
// testdata or starting with "." (and bin, where binaries are built) and
// honours build constraints. An import of a package under root resolves to
// its non-test files, checked once; any other import comes from the
// standard library's source. External tests therefore see the package
// under test without its in-package test files.
func Load(fset *token.FileSet, root, prefix string) ([]*Unit, error) {
	l := &loader{fset: fset, std: importer.ForCompiler(fset, "source", nil),
		files: map[string][]*ast.File{}, libs: map[string]*Unit{}}
	err := filepath.WalkDir(root, func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		n, dir := d.Name(), filepath.Dir(name)
		if d.IsDir() {
			if name != root && (n[0] == '.' || n == "testdata" || n == "bin") {
				return filepath.SkipDir
			}
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, n); !ok || err != nil || !strings.HasSuffix(n, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		rel, _ := filepath.Rel(root, dir)
		p := path.Join(prefix, filepath.ToSlash(rel))
		l.files[p] = append(l.files[p], f)
		return err
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.files))
	for p := range l.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var units []*Unit
	for _, p := range paths {
		var lib, test, xtest []*ast.File
		for _, f := range l.files[p] {
			switch {
			case !l.isTest(f):
				lib = append(lib, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				xtest = append(xtest, f)
			default:
				test = append(test, f)
			}
		}
		u, err := l.lib(p)
		if err == nil && len(test) > 0 {
			u, err = l.check(p, append(lib, test...))
		}
		if err != nil {
			return nil, err
		}
		if len(u.Files) > 0 {
			units = append(units, u)
		}
		if len(xtest) > 0 {
			if u, err = l.check(p+"_test", xtest); err != nil {
				return nil, err
			}
			units = append(units, u)
		}
	}
	return units, nil
}

type loader struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // import path -> its parsed files, tests included
	libs  map[string]*Unit       // import path -> its non-test files, checked
}

func (l *loader) Import(p string) (*types.Package, error) {
	if l.files[p] == nil {
		return l.std.Import(p)
	}
	u, err := l.lib(p)
	if err != nil {
		return nil, err
	}
	return u.Pkg, nil
}

// lib type-checks the non-test files of the package at p, once.
func (l *loader) lib(p string) (*Unit, error) {
	if u, ok := l.libs[p]; ok {
		if u == nil {
			return nil, fmt.Errorf("import cycle through %s", p)
		}
		return u, nil
	}
	l.libs[p] = nil
	var files []*ast.File
	for _, f := range l.files[p] {
		if !l.isTest(f) {
			files = append(files, f)
		}
	}
	u, err := l.check(p, files)
	l.libs[p] = u
	return u, err
}

func (l *loader) check(p string, files []*ast.File) (*Unit, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(p, l.fset, files, info)
	return &Unit{files, pkg, info}, err
}

func (l *loader) isTest(f *ast.File) bool {
	return strings.HasSuffix(l.fset.File(f.Pos()).Name(), "_test.go")
}
