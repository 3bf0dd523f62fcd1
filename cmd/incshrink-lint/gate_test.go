package main_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"incshrink/internal/analysis"
)

// TestLintGate proves the lint gate actually gates: it seeds one copy of the
// module with a violation per case, runs the driver over it once, and wants
// each seeded line reported by its analyzer — and nothing else reported.
// Seeding a secret-dependent branch into internal/oblivious trips
// oblivtaint — be it a plain flag test, a branching compare-exchange over
// the sort kernel's keys, a merge whose window of the network is cut by a
// key, a popcount of a packed flag word that loops once per set bit inside
// the scan kernel, a branch on a block's cells in place of one of the block
// kernel's carries, or a carry retirement that selects the keys behind the
// cut in the merge join's own body rather than in the sanctioned scan
// (emitJoin), none of which any sanction covers — and so does a branch on a
// reconstructed bit seeded into internal/gmw (whose gate code no sanction
// covers either). A go statement
// in a library package without an allow naming its join trips goleak —
// unjoined in internal/serve, or joined through a WaitGroup in
// internal/core — and a wall-clock read, an order-sensitive map range, a
// sync/atomic function call and a math/rand source outside internal/dp (in
// internal/core or internal/mpc) trip detclock, maporder, atomicmix and
// rngdraw. Every finding makes
// incshrink-lint exit nonzero, exactly as `make lint` runs it. This is the
// same defence-in-depth pin the detclock analyzer got when it landed (a
// smuggled time.Now must fail CI, not just a unit test over fixtures).
func TestLintGate(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipping in -short")
	}
	cases := []struct {
		name     string
		file     string // module-relative file to seed
		inject   string // source appended verbatim (to a new file if file does not exist)
		replace  string // when set, the line of file that inject replaces instead
		line     string // the seeded line the finding must be on
		analyzer string // expected analyzer of that finding
	}{
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
			line:     "if b.IsReal(i) {",
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
			line:     "if keys[1].k < keys[0].k {",
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
			line:     "if keys[m].k < keys[0].k {",
			analyzer: "oblivtaint",
		},
		{
			name:    "oblivtaint catches seeded flag branch in the scan kernel",
			file:    "internal/oblivious/scan.go",
			replace: "\t\t\ttotal += bits.OnesCount64(w)\n",
			inject: `			for ; w != 0; w &= w - 1 {
				total++
			}
`,
			line:     "for ; w != 0; w &= w - 1 {",
			analyzer: "oblivtaint",
		},
		{
			name:    "oblivtaint catches a seeded cell branch in the scan's block kernel",
			file:    "internal/oblivious/scan.go",
			replace: "\t\thi, _ = bits.Add64(hi, hi, c)\n",
			inject: `		if a[k] > b[k] {
			hi++
		}
`,
			line:     "if a[k] > b[k] {",
			analyzer: "oblivtaint",
		},
		{
			name:    "oblivtaint catches seeded carry retirement outside the join's scan",
			file:    "internal/oblivious/join.go",
			replace: "\tmergeKeys(&dst.ws, keys, m, len(keys))\n",
			inject: `	mergeKeys(&dst.ws, keys, m, len(keys))
	kept := u.back[:0]
	for _, k := range keys {
		if uint32(k.w) >= uint32(cut[k.w>>32]) {
			kept = append(kept, k)
		}
	}
`,
			line:     "if uint32(k.w) >= uint32(cut[k.w>>32]) {",
			analyzer: "oblivtaint",
		},
		{
			name: "oblivtaint catches seeded branching select in gmw",
			file: "internal/gmw/eval.go",
			inject: `
func lintGateBranchingSelect(t Tuple, z uint64) uint64 {
	if t.bit(2).Open() {
		z ^= 1
	}
	return z
}
`,
			line:     "if t.bit(2).Open() {",
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
			line:     "go f()",
			analyzer: "goleak",
		},
		{
			name: "goleak catches seeded joined but unannotated goroutine",
			file: "internal/core/lintgate_join.go",
			inject: `package core

import "sync"

func lintGateWork(wg *sync.WaitGroup) { wg.Done() }

func lintGateJoin() {
	var wg sync.WaitGroup
	wg.Add(1)
	go lintGateWork(&wg)
	wg.Wait()
}
`,
			line:     "go lintGateWork(&wg)",
			analyzer: "goleak",
		},
		{
			name: "detclock catches seeded wall-clock read",
			file: "internal/core/lintgate_clock.go",
			inject: `package core

import "time"

func lintGateClock() int64 {
	return time.Now().UnixNano()
}
`,
			line:     "return time.Now().UnixNano()",
			analyzer: "detclock",
		},
		{
			name: "maporder catches seeded order-sensitive map range",
			file: "internal/table/lintgate_order.go",
			inject: `package table

func lintGateValues(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
`,
			line:     "for _, v := range m {",
			analyzer: "maporder",
		},
		{
			name: "atomicmix catches seeded plain read of an atomic counter",
			file: "internal/serve/lintgate_atomic.go",
			inject: `package serve

import "sync/atomic"

var lintGateHits int64

func lintGateHit() int64 {
	atomic.AddInt64(&lintGateHits, 1)
	return lintGateHits
}
`,
			line:     "atomic.AddInt64(&lintGateHits, 1)",
			analyzer: "atomicmix",
		},
		{
			name: "rngdraw catches seeded uncounted RNG",
			file: "internal/core/lintgate_rng.go",
			inject: `package core

import "math/rand"

func lintGateRNG() *rand.Rand {
	return rand.New(rand.NewSource(1))
}
`,
			line:     "return rand.New(rand.NewSource(1))",
			analyzer: "rngdraw",
		},
		{
			name: "rngdraw catches math/rand imported into a protocol package",
			file: "internal/mpc/lintgate_rng.go",
			inject: `package mpc

import "math/rand"

func lintGateWord(seed int64) uint32 {
	return rand.New(rand.NewSource(seed)).Uint32()
}
`,
			line:     "return rand.New(rand.NewSource(seed)).Uint32()",
			analyzer: "rngdraw",
		},
	}

	moduleRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	root := copyModule(t, moduleRoot)
	for _, tc := range cases {
		target := filepath.Join(root, filepath.FromSlash(tc.file))
		src, err := os.ReadFile(target)
		if err != nil && !os.IsNotExist(err) {
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
	findings, err := analysis.Lint(root)
	if err != nil {
		t.Fatal(err)
	}

	// A case's finding is "<file>:<line>:<col>: [<analyzer>] <message>".
	var lines []string
	for _, tc := range cases {
		target := filepath.Join(root, filepath.FromSlash(tc.file))
		src, err := os.ReadFile(target)
		if err != nil {
			t.Fatal(err)
		}
		var at []string
		for i, l := range strings.Split(string(src), "\n") {
			if strings.TrimSpace(l) == tc.line {
				at = append(at, fmt.Sprintf("%s:%d:", target, i+1))
			}
		}
		if len(at) != 1 {
			t.Fatalf("%s: want exactly one seeded line %q, found %d", tc.file, tc.line, len(at))
		}
		lines = append(lines, at[0])
		t.Run(tc.name, func(t *testing.T) {
			for _, f := range findings {
				if strings.HasPrefix(f, at[0]) && strings.Contains(f, ": ["+tc.analyzer+"] ") {
					return
				}
			}
			t.Fatalf("seeded %s violation at %s is not reported; findings:\n%s",
				tc.analyzer, at[0], strings.Join(findings, "\n"))
		})
	}
	t.Run("control", func(t *testing.T) {
		for _, f := range findings {
			if !slices.ContainsFunc(lines, func(at string) bool { return strings.HasPrefix(f, at) }) {
				t.Errorf("finding off the seeded lines: %s", f)
			}
		}
	})
}

// copyModule clones the module source tree into a temp dir so the cases
// can mutate it freely. VCS metadata and built binaries are skipped; the
// analyzer fixtures under testdata ride along but are never loaded.
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
