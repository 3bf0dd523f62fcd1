package analysis

import (
	"go/parser"
	"go/token"
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
