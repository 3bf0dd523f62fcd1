package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportsKept are the exported symbols `make deadexports` tolerates with
// no reference outside their own package's tests, each with what keeps it.
var deadExportsKept = map[string]string{
	"dp.DummyInsertedBound": "theorem bound; ROADMAP item 3 asserts against it or deletes it",
	"dp.ANTDeferredBound":   "theorem bound; ROADMAP item 3",
	"dp.FlushSizeFor":       "theorem bound; ROADMAP item 3",
	"gmw.Bit.Open":          "gate library; ROADMAP item 6 runs the engine on it",
	"gmw.EqualShape":        "gate library; ROADMAP item 6",
	"gmw.Eval.XOR":          "gate library; ROADMAP item 6",
	"gmw.Eval.OR":           "gate library; ROADMAP item 6",
	"gmw.Eval.MUX":          "gate library; ROADMAP item 6",
	"gmw.Eval.XORWords":     "gate library; ROADMAP item 6",
	"gmw.Eval.Equal":        "gate library; ROADMAP item 6",
	"gmw.Eval.Stats":        "gate library; ROADMAP item 6",
	"party.Resume":          "rejoin entry point; ROADMAP item 7 wires it to a reconnect",
	"secretshare.NewRand":   "the package's seeded source for its tests and fuzzers",
	"query.Compiled.Conds":  "query.Rewrite outlives its callers for cmd/benchmark's probe; ROADMAP item 1",
	"query.Compiled.Oracle": "as above",
	"query.Compiled.Query":  "as above",
}

// moduleImporter type-checks the module's packages from their non-test
// files, once each, so a symbol is one object wherever it is referenced;
// everything else comes from the standard library's source importer.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // import path -> every parsed file, tests included
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (l *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.files[path] == nil {
		return l.std.Import(path)
	}
	var files []*ast.File
	for _, f := range l.files[path] {
		if !l.isTest(f.Pos()) {
			files = append(files, f)
		}
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	l.pkgs[path] = p
	return p, err
}

func (l *moduleImporter) isTest(pos token.Pos) bool {
	return strings.HasSuffix(l.fset.Position(pos).Filename, "_test.go")
}

// TestDeadExports is `make deadexports` (ROADMAP item 10): an exported
// function, type, variable, constant or method of an internal package must
// be referenced from somewhere other than its own package's tests. Struct
// fields are not policed, and a method is exempt when its type implements
// an interface (of the module or the standard library) that has it, since
// it may be reached through that interface. The load also asserts that no
// non-test file of the module references package sync's Pool.
func TestDeadExports(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	l := &moduleImporter{
		fset: fset, std: importer.ForCompiler(fset, "source", nil),
		files: map[string][]*ast.File{}, pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	var paths []string
	err := filepath.WalkDir(root, func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if n := d.Name(); d.IsDir() {
			if name != root && (n[0] == '.' || n == "testdata" || n == "bin") {
				return filepath.SkipDir
			}
			return nil
		} else if !strings.HasSuffix(n, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		rel, _ := filepath.Rel(root, filepath.Dir(name))
		path := strings.TrimSuffix(ModulePath+"/"+filepath.ToSlash(rel), "/.")
		if l.files[path] == nil {
			paths = append(paths, path)
		}
		l.files[path] = append(l.files[path], f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	used := map[types.Object]bool{}
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		// Test files count as references to other packages only. They are
		// checked with their package's sources (external tests on their
		// own) and type errors ignored: export_test helpers and build-tagged
		// twins do not resolve here, and do not need to.
		variants := map[string][]*ast.File{}
		for _, f := range l.files[path] {
			variants[f.Name.Name] = append(variants[f.Name.Name], f)
		}
		for _, fs := range variants {
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			(&types.Config{Importer: l, Error: func(error) {}}).Check(path, fset, fs, info)
			for id, obj := range info.Uses {
				if l.isTest(id.Pos()) && obj.Pkg() != nil && obj.Pkg().Path() != path {
					used[obj] = true
				}
			}
		}
	}
	for id, obj := range l.info.Uses {
		used[obj] = true
		// The same load keeps the process-wide free lists deleted: scratch
		// rides on the buffer its operator mutates (DESIGN.md §7).
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool" {
			t.Errorf("%s: a sync Pool in a non-test file; scratch has an owner", fset.Position(id.Pos()))
		}
	}
	ifaces := reachedInterfaces(l.pkgs)
	var dead []string
	kept := map[string]bool{}
	for id, obj := range l.info.Defs { //lint:allow maporder dead is sorted before it is reported
		if obj == nil || !obj.Exported() || used[obj] || !strings.HasPrefix(obj.Pkg().Path(), ModulePath+"/internal/") ||
			obj.Pkg().Path() == ModulePath+"/internal/analysis/analysistest" {
			continue
		}
		name := obj.Pkg().Name() + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			recv := fn.Type().(*types.Signature).Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			// errors.Is and As reach Unwrap through an anonymous interface.
			if !ok || types.IsInterface(named) || fn.Name() == "Unwrap" || implementsOneWith(named, fn.Name(), ifaces) {
				continue
			}
			name = obj.Pkg().Name() + "." + named.Obj().Name() + "." + obj.Name()
		} else if obj.Parent() != obj.Pkg().Scope() {
			continue // a field, parameter or local
		}
		if kept[name] = true; deadExportsKept[name] == "" {
			dead = append(dead, fset.Position(id.Pos()).String()+": "+name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but referenced by nothing outside its own package's tests", d)
	}
	for name := range deadExportsKept {
		if !kept[name] {
			t.Errorf("deadExportsKept lists %s, which is referenced or gone", name)
		}
	}
}

// reachedInterfaces lists error and the named interfaces of every package
// the load reached, the standard library's included.
func reachedInterfaces(pkgs map[string]*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				out = append(out, tn.Type().Underlying().(*types.Interface))
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

func implementsOneWith(recv types.Type, method string, ifaces []*types.Interface) bool {
	for _, i := range ifaces {
		for k := 0; k < i.NumMethods(); k++ {
			if i.Method(k).Name() == method && types.Implements(types.NewPointer(recv), i) {
				return true
			}
		}
	}
	return false
}
