package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLintGate proves the lint gate actually gates: seeding a
// secret-dependent branch into internal/oblivious trips oblivtaint — be it
// a plain flag test, a branching compare-exchange over the sort kernel's
// keys, a merge whose window of the network is cut by a key, or a branch on
// a flag byte inside the scan kernel, none of which any sanction covers — a branch on a reconstructed bit seeded into
// internal/gmw (whose gate code no sanction covers either) does the same,
// and an unjoined go statement in internal/serve trips goleak. Each makes
// `go vet -vettool=incshrink-lint` exit nonzero, exactly as `make lint`
// runs it. The unmodified tree is the control. This is the same
// defence-in-depth pin the detclock analyzer got when it landed (a smuggled
// time.Now must fail CI, not just a unit test over fixtures).
func TestLintGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the vettool and recompiles the module; skipping in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}

	moduleRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tool := filepath.Join(t.TempDir(), "incshrink-lint")
	build := exec.Command(goBin, "build", "-o", tool, ".")
	build.Dir = filepath.Join(moduleRoot, "cmd", "incshrink-lint")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building vettool: %v\n%s", err, out)
	}

	cases := []struct {
		name     string
		file     string // module-relative file to seed
		inject   string // source appended verbatim
		replace  string // when set, the line of file that inject replaces instead
		pkg      string // package argument for go vet
		analyzer string // expected analyzer name in the failure output
	}{
		{
			name: "control",
			pkg:  "./internal/oblivious ./internal/gmw ./internal/serve",
		},
		{
			name: "oblivtaint catches seeded secret branch",
			file: "internal/oblivious/sort.go",
			inject: `
func lintGateSecretBranch(b *Buffer, i int) int {
	if b.IsReal(i) {
		return 1
	}
	return 0
}
`,
			pkg:      "./internal/oblivious",
			analyzer: "oblivtaint",
		},
		{
			name: "oblivtaint catches seeded branching compare-exchange",
			file: "internal/oblivious/sort.go",
			inject: `
func lintGateBranchingExchange(b *Buffer, keys []sortKey) {
	keys[0].k, keys[1].k = boolWord(b.flag[0]), boolWord(b.flag[1])
	if keys[1].k < keys[0].k {
		keys[0], keys[1] = keys[1], keys[0]
	}
}
`,
			pkg:      "./internal/oblivious",
			analyzer: "oblivtaint",
		},
		{
			name:    "oblivtaint catches seeded key-dependent merge cut",
			file:    "internal/oblivious/sort.go",
			replace: "\tlo := 1<<lp - m\n",
			inject: `	lo := 1<<lp - m
	if keys[m].k < keys[0].k {
		lo--
	}
`,
			pkg:      "./internal/oblivious",
			analyzer: "oblivtaint",
		},
		{
			name:    "oblivtaint catches seeded flag branch in the scan kernel",
			file:    "internal/oblivious/scan.go",
			replace: "\t\t\ttotal += int(flag[i])\n",
			inject: `			if flag[i] == 1 {
				total++
			}
`,
			pkg:      "./internal/oblivious",
			analyzer: "oblivtaint",
		},
		{
			name: "oblivtaint catches seeded branching select in gmw",
			file: "internal/gmw/eval.go",
			inject: `
func lintGateBranchingSelect(t Triple, z uint64) uint64 {
	if t.B.Open() {
		z ^= 1
	}
	return z
}
`,
			pkg:      "./internal/gmw",
			analyzer: "oblivtaint",
		},
		{
			name: "goleak catches seeded unjoined goroutine",
			file: "internal/serve/serve.go",
			inject: `
func lintGateSpawn(f func()) {
	go f()
}
`,
			pkg:      "./internal/serve",
			analyzer: "goleak",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := copyModule(t, moduleRoot)
			if tc.file != "" {
				target := filepath.Join(root, filepath.FromSlash(tc.file))
				src, err := os.ReadFile(target)
				if err != nil {
					t.Fatal(err)
				}
				seeded := string(src) + tc.inject
				if tc.replace != "" {
					if strings.Count(string(src), tc.replace) != 1 {
						t.Fatalf("%s no longer has exactly one line %q to seed", tc.file, tc.replace)
					}
					seeded = strings.Replace(string(src), tc.replace, tc.inject, 1)
				}
				if err := os.WriteFile(target, []byte(seeded), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			args := append([]string{"vet", "-vettool=" + tool, "-tests", "-unusedallow"},
				strings.Fields(tc.pkg)...)
			vet := exec.Command(goBin, args...)
			vet.Dir = root
			out, err := vet.CombinedOutput()

			if tc.analyzer == "" {
				if err != nil {
					t.Fatalf("clean tree must pass the gate, got: %v\n%s", err, out)
				}
				return
			}
			if err == nil {
				t.Fatalf("seeded violation in %s must fail the gate, but go vet exited 0\n%s", tc.file, out)
			}
			if !strings.Contains(string(out), tc.analyzer) {
				t.Fatalf("gate failed but not via %s:\n%s", tc.analyzer, out)
			}
		})
	}
}

// copyModule clones the module source tree into a temp dir so each case
// can mutate it freely. VCS metadata and built binaries are skipped; the
// analyzer fixtures under testdata ride along but are never compiled.
func copyModule(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if rel == "." {
			return nil
		}
		base := d.Name()
		if d.IsDir() {
			if base == ".git" || base == "bin" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
