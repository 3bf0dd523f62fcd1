// Package analysistest runs one analyzer over a fixture package under
// testdata/src and checks its findings against `// want "regexp"` comments
// in the fixture, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// Fixture packages live at testdata/src/<import-path>/ (their _test.go
// files are part of the package, so an analyzer's handling of test files can
// be pinned under Options.IncludeTests) and are
// type-checked against that tree first, so a fixture can import
// "incshrink/internal/dp" or "math/rand" and get the small stubs checked
// in next to it — tests stay hermetic and fast, with no dependence on
// GOROOT parsing. Paths not present under testdata/src fall back to the
// real source importer.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"incshrink/internal/analysis"
)

// Run loads testdata/src/<pkgpath> (testdata relative to the caller's
// directory), applies the analyzer through the real driver — including
// //lint:allow suppression — and matches findings against want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkgpath string) {
	t.Helper()
	RunOpts(t, analysis.Options{}, a, pkgpath)
}

// RunOpts is Run with explicit driver options.
func RunOpts(t *testing.T, opts analysis.Options, a *analysis.Analyzer, pkgpath string) {
	t.Helper()
	l := newLoader("testdata/src")
	pkg, files, info, err := l.loadDir(pkgpath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgpath, err)
	}

	diags := analysis.Run(l.fset, files, pkg, info, []*analysis.Analyzer{a}, opts)

	wants := collectWants(t, l.fset, files)
	for _, d := range diags {
		p := l.fset.Position(d.Pos)
		key := wantKey{filepath.Base(p.Filename), p.Line}
		if !wants.match(key, d.Message) {
			t.Errorf("%s:%d: unexpected finding: [%s] %s", key.file, key.line, d.Analyzer, d.Message)
		}
	}
	wants.reportUnmatched(t)
}

type wantKey struct {
	file string
	line int
}

type wantSet struct {
	byKey map[wantKey][]*regexp.Regexp
}

func (w *wantSet) match(key wantKey, msg string) bool {
	for i, rx := range w.byKey[key] {
		if rx != nil && rx.MatchString(msg) {
			w.byKey[key][i] = nil
			return true
		}
	}
	return false
}

func (w *wantSet) reportUnmatched(t *testing.T) {
	t.Helper()
	keys := make([]wantKey, 0, len(w.byKey))
	for k := range w.byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, rx := range w.byKey[k] {
			if rx != nil {
				t.Errorf("%s:%d: expected finding matching %q, got none", k.file, k.line, rx)
			}
		}
	}
}

// collectWants parses `// want "rx" "rx"` (or backquoted) expectations.
// The directive may appear anywhere in a comment, so it composes with
// //lint:allow fixtures.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) *wantSet {
	t.Helper()
	w := &wantSet{byKey: map[wantKey][]*regexp.Regexp{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				p := fset.Position(c.Pos())
				key := wantKey{filepath.Base(p.Filename), p.Line}
				for _, pat := range scanPatterns(t, c.Text[i+len("// want "):], key) {
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", key.file, key.line, pat, err)
					}
					w.byKey[key] = append(w.byKey[key], rx)
				}
			}
		}
	}
	return w
}

// scanPatterns extracts the quoted or backquoted pattern tokens.
func scanPatterns(t *testing.T, s string, key wantKey) []string {
	t.Helper()
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte
		switch s[0] {
		case '"', '`':
			quote = s[0]
		default:
			t.Fatalf("%s:%d: malformed want directive near %q", key.file, key.line, s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			t.Fatalf("%s:%d: unterminated want pattern %q", key.file, key.line, s)
		}
		pats = append(pats, s[1:1+end])
		s = strings.TrimSpace(s[2+end:])
	}
	return pats
}

// loader type-checks fixture packages, resolving imports from testdata/src
// first and the real source tree otherwise.
type loader struct {
	fset     *token.FileSet
	src      string
	pkgs     map[string]*loadResult
	fallback types.Importer
}

type loadResult struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

func newLoader(src string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:     fset,
		src:      src,
		pkgs:     map[string]*loadResult{},
		fallback: importer.ForCompiler(fset, "source", nil),
	}
}

func (l *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.src, path); dirExists(dir) {
		res, _, _, err := l.loadDir(path)
		return res, err
	}
	return l.fallback.Import(path)
}

func (l *loader) loadDir(path string) (*types.Package, []*ast.File, *types.Info, error) {
	if res, ok := l.pkgs[path]; ok {
		return res.pkg, res.files, res.info, res.err
	}
	res := &loadResult{}
	l.pkgs[path] = res // pre-register: import cycles error out in Check

	dir := filepath.Join(l.src, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		res.err = err
		return nil, nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".go") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		res.err = fmt.Errorf("no Go files in %s", dir)
		return nil, nil, nil, res.err
	}
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			res.err = err
			return nil, nil, nil, err
		}
		res.files = append(res.files, f)
	}
	res.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tc := &types.Config{Importer: l}
	res.pkg, res.err = tc.Check(path, l.fset, res.files, res.info)
	return res.pkg, res.files, res.info, res.err
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}
