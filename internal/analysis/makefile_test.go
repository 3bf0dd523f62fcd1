package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileNamesExist: a Makefile target that picks tests by name passes
// with "[no tests to run]" once the test it names is renamed. So every
// `go test` line that names tests with -run, -bench or -fuzz must name
// declared functions: each |-alternative of the pattern has to match a
// function of the right kind in every package the line lists. On a line
// with -bench or -fuzz, -run only silences the tests and is not checked.
func TestMakefileNamesExist(t *testing.T) {
	_, units := loadModule(t)
	src, err := os.ReadFile(filepath.Join(moduleRoot, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	// Declared test functions by package directory ("." is the root) and kind.
	declared := map[string][]string{}
	for _, u := range units {
		dir := "." + strings.TrimPrefix(strings.TrimSuffix(u.Pkg.Path(), "_test"), ModulePath)
		for _, f := range u.Files {
			if !strings.HasSuffix(moduleFset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					declared[dir] = append(declared[dir], fn.Name.Name)
				}
			}
		}
	}
	checked := 0
	for i, line := range strings.Split(string(src), "\n") {
		if !strings.Contains(line, "$(GO) test ") {
			continue
		}
		flags, pkgs := parseGoTestLine(line)
		for _, sel := range testSelectors {
			flag, kinds := sel.flag, sel.kinds
			pattern, ok := flags[flag]
			if !ok || flag == "-run" && (flags["-bench"] != "" || flags["-fuzz"] != "") {
				continue
			}
			for _, alt := range strings.Split(strings.ReplaceAll(pattern, "$$", "$"), "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile:%d: %s %q: %v", i+1, flag, alt, err)
					continue
				}
				for _, pkg := range pkgs {
					checked++
					if !matchesKind(declared[pkg], re, kinds) {
						t.Errorf("Makefile:%d: %s %q matches no %s function in %s", i+1, flag, alt, strings.Join(kinds, "/"), pkg)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no Makefile line names a test: the parser no longer reads it")
	}
}

// TestMakefileTargetsExist: a target that CI or .PHONY still names after its
// rule is deleted fails only when that job runs, or never. So every
// `make <target>` in the CI workflow and every .PHONY name must be a rule the
// Makefile defines.
func TestMakefileTargetsExist(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(moduleRoot, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string]bool{}
	var phony []string
	for _, line := range strings.Split(string(src), "\n") {
		head, _, ok := strings.Cut(line, ":")
		if !ok || strings.ContainsAny(line[:1], " \t#") || strings.HasPrefix(line[len(head):], ":=") {
			continue
		}
		if head == ".PHONY" {
			phony = strings.Fields(line[len(head)+1:])
			continue
		}
		for _, name := range strings.Fields(head) {
			rules[name] = true
		}
	}
	if len(rules) == 0 || len(phony) == 0 {
		t.Fatal("no rule or no .PHONY line in the Makefile: the parser no longer reads it")
	}
	for _, name := range phony {
		if !rules[name] {
			t.Errorf("Makefile: .PHONY names %q, which no rule defines", name)
		}
	}
	ci, err := os.ReadFile(filepath.Join(moduleRoot, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	named := 0
	for i, line := range strings.Split(string(ci), "\n") {
		fields := strings.Fields(line)
		if len(fields) > 0 && fields[0] == "#" {
			continue
		}
		for j, f := range fields {
			if f != "make" {
				continue
			}
			for _, target := range fields[j+1:] {
				if strings.HasPrefix(target, "-") || strings.Contains(target, "=") {
					continue // a flag or a variable
				}
				if !targetName.MatchString(target) {
					break // the shell command goes on past make
				}
				named++
				if !rules[target] {
					t.Errorf("ci.yml:%d: make %s, which no Makefile rule defines", i+1, target)
				}
			}
		}
	}
	if named == 0 {
		t.Fatal("ci.yml names no make target: the parser no longer reads it")
	}
}

// targetName is what a make target on a CI line looks like.
var targetName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// testSelectors are the go test flags that pick functions by name, each
// with the kinds of function it picks from.
var testSelectors = []struct {
	flag  string
	kinds []string
}{
	{"-run", []string{"Test", "Fuzz", "Example"}},
	{"-bench", []string{"Benchmark"}},
	{"-fuzz", []string{"Fuzz"}},
}

// parseGoTestLine splits a `$(GO) test` recipe line into its flags that take
// a pattern (single quotes removed) and the package directories it lists.
func parseGoTestLine(line string) (map[string]string, []string) {
	fields := strings.Fields(strings.ReplaceAll(line, "'", ""))
	flags := map[string]string{}
	var pkgs []string
	for j, f := range fields {
		switch {
		case (f == "-run" || f == "-bench" || f == "-fuzz") && j+1 < len(fields):
			flags[f] = fields[j+1]
		case f == "." || strings.HasPrefix(f, "./") && !strings.HasSuffix(f, "..."):
			pkgs = append(pkgs, f)
		}
	}
	return flags, pkgs
}

// matchesKind reports whether re matches a declared name that begins with
// one of the kinds' prefixes.
func matchesKind(names []string, re *regexp.Regexp, kinds []string) bool {
	for _, n := range names {
		for _, k := range kinds {
			if strings.HasPrefix(n, k) && re.MatchString(n) {
				return true
			}
		}
	}
	return false
}
