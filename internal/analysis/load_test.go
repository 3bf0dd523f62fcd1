package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

const moduleRoot = "../.."

var (
	moduleFset = token.NewFileSet()
	moduleLoad = sync.OnceValues(func() ([]*Unit, error) { return Load(moduleFset, moduleRoot, ModulePath) })
)

// loadModule loads the module once for every test of the package that
// reads it.
func loadModule(t *testing.T) (*token.FileSet, []*Unit) {
	t.Helper()
	units, err := moduleLoad()
	if err != nil {
		t.Fatal(err)
	}
	return moduleFset, units
}

// TestLoadMatchesGoList pins Load to cmd/go: over the module, its units are
// go list's GoFiles with TestGoFiles and its XTestGoFiles, each file in
// exactly one unit. That is what lets the driver report an allow that
// suppresses nothing: no file is analyzed twice, or by half the suite.
func TestLoadMatchesGoList(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	list := exec.Command(goBin, "list", "-json", "./...")
	list.Dir = moduleRoot
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var want []string
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			Dir                                string
			GoFiles, TestGoFiles, XTestGoFiles []string
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		for _, files := range [][]string{append(p.GoFiles, p.TestGoFiles...), p.XTestGoFiles} {
			for i, f := range files {
				files[i] = filepath.Join(p.Dir, f)
			}
			if len(files) > 0 {
				want = append(want, unitKey(files))
			}
		}
	}

	fset, units := loadModule(t)
	var got []string
	seen := map[string]bool{}
	for _, u := range units {
		var files []string
		for _, f := range u.Files {
			name, err := filepath.Abs(fset.File(f.Pos()).Name())
			if err != nil {
				t.Fatal(err)
			}
			if seen[name] {
				t.Errorf("%s is in two units", name)
			}
			seen[name] = true
			files = append(files, name)
		}
		got = append(got, unitKey(files))
	}
	missing(t, "go list has a unit Load lacks", want, got)
	missing(t, "Load has a unit go list lacks", got, want)
}

// missing reports each key of a that b lacks.
func missing(t *testing.T, msg string, a, b []string) {
	t.Helper()
	in := map[string]bool{}
	for _, k := range b {
		in[k] = true
	}
	for _, k := range a {
		if !in[k] {
			t.Errorf("%s:\n%s", msg, k)
		}
	}
}

func unitKey(files []string) string {
	sort.Strings(files)
	return strings.Join(files, "\n")
}
