// Package analysistest runs one analyzer over a fixture package under
// testdata/src and checks its findings against `// want "regexp"` comments
// in the fixture, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// The fixture tree is loaded with analysis.Load, as the lint driver loads
// the module: testdata/src/<import-path>/ is the package <import-path>, its
// _test.go files are in its unit, and imports resolve to the tree first, so
// a fixture can import "incshrink/internal/dp" or "math/rand" and get the
// small stubs checked in next to it — tests stay hermetic and fast, with
// little GOROOT parsing. Paths not present under testdata/src fall back to
// the real source importer.
package analysistest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"incshrink/internal/analysis"
)

// Run loads testdata/src (relative to the caller's directory), applies the
// analyzer to the unit of pkgpath through the real driver — including
// //lint:allow suppression and unused-allow reporting — and matches
// findings against want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkgpath string) {
	t.Helper()
	fset := token.NewFileSet()
	units, err := analysis.Load(fset, "testdata/src", "")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	for _, u := range units {
		if u.Pkg.Path() != pkgpath {
			continue
		}
		wants := collectWants(t, fset, u.Files)
		for _, d := range analysis.Run(fset, u, []*analysis.Analyzer{a}) {
			p := fset.Position(d.Pos)
			key := wantKey{filepath.Base(p.Filename), p.Line}
			if !wants.match(key, d.Message) {
				t.Errorf("%s:%d: unexpected finding: [%s] %s", key.file, key.line, d.Analyzer, d.Message)
			}
		}
		wants.reportUnmatched(t)
		return
	}
	t.Fatalf("no fixture package %s under testdata/src", pkgpath)
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
