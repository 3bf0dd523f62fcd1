// Command incshrink-lint is the multichecker for incshrink's determinism
// and obliviousness analyzers (detclock, rngdraw, maporder, oblivtaint,
// goleak, atomicmix — see internal/analysis). It is usable two ways:
//
// Standalone, over the whole module (the make-lint entry point):
//
//	incshrink-lint ./...
//
// As a vet tool, which is also what standalone mode execs under the hood:
//
//	go vet -vettool=$(command -v incshrink-lint) ./...
//
// Analyzers are enabled with -detclock, -rngdraw, -maporder, -oblivtaint,
// -goleak, -atomicmix (all on by default) and scoped with
// -detclock.exclude / -rngdraw.pkgs / -oblivtaint.pkgs /
// -oblivtaint.sanction / -goleak.exclude.
// Intentional violations are annotated in source with
// `//lint:allow <analyzer> <reason>`; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"incshrink/internal/analysis"
	"incshrink/internal/analysis/unitchecker"
)

func main() {
	unitchecker.RegisterFlags()
	enable := map[string]*bool{}
	for _, a := range analysis.All() {
		enable[a.Name] = flag.Bool(a.Name, true, "enable the "+a.Name+" analyzer: "+a.Doc)
	}
	detclockExclude := flag.String("detclock.exclude", strings.Join(analysis.DetClockExclude, ","),
		"comma-separated module-relative package prefixes detclock skips")
	detclockSanction := flag.String("detclock.sanction", strings.Join(analysis.DetClockSanctioned, ","),
		"comma-separated module-relative package prefixes allowed to read the wall clock (the math/rand ban still applies)")
	rngdrawPkgs := flag.String("rngdraw.pkgs", encodePkgList(analysis.RNGDrawPackages),
		"comma-separated module-relative snapshot-covered packages rngdraw polices ('.' is the module root)")
	oblivtaintPkgs := flag.String("oblivtaint.pkgs", encodePkgList(analysis.OblivTaintPackages),
		"comma-separated module-relative packages carrying the obliviousness obligation")
	oblivtaintSanction := flag.String("oblivtaint.sanction", strings.Join(analysis.OblivTaintSanctioned, ","),
		"comma-separated '<pkg>.<Recv.>Func' constant-time primitives whose bodies oblivtaint exempts")
	goleakExclude := flag.String("goleak.exclude", strings.Join(analysis.GoLeakExclude, ","),
		"comma-separated module-relative package prefixes goleak skips")
	tests := flag.Bool("tests", false, "also report findings in _test.go files")
	unusedallow := flag.Bool("unusedallow", false, "report //lint:allow comments that suppress nothing")
	flag.Parse()
	unitchecker.MaybePrintFlags()

	analysis.DetClockExclude = splitList(*detclockExclude)
	analysis.DetClockSanctioned = splitList(*detclockSanction)
	analysis.RNGDrawPackages = decodePkgList(*rngdrawPkgs)
	analysis.OblivTaintPackages = decodePkgList(*oblivtaintPkgs)
	analysis.OblivTaintSanctioned = splitList(*oblivtaintSanction)
	analysis.GoLeakExclude = splitList(*goleakExclude)

	var enabled []*analysis.Analyzer
	for _, a := range analysis.All() {
		if *enable[a.Name] {
			enabled = append(enabled, a)
		}
	}
	opts := analysis.Options{IncludeTests: *tests, ReportUnusedAllows: *unusedallow}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		unitchecker.Run(args[0], enabled, opts) // exits
	}

	// Standalone mode: delegate loading, export data and test variants to
	// cmd/go by re-execing as our own vet tool.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "incshrink-lint:", err)
		os.Exit(1)
	}
	vetArgs := []string{"vet", "-vettool=" + self}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "V", "flags":
			return
		}
		vetArgs = append(vetArgs, "-"+f.Name+"="+f.Value.String())
	})
	if len(args) == 0 {
		args = []string{"./..."}
	}
	vetArgs = append(vetArgs, args...)

	cmd := exec.Command("go", vetArgs...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintln(os.Stderr, "incshrink-lint:", err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func encodePkgList(pkgs []string) string {
	enc := make([]string, len(pkgs))
	for i, p := range pkgs {
		if p == "" {
			p = "."
		}
		enc[i] = p
	}
	return strings.Join(enc, ",")
}

func decodePkgList(s string) []string {
	parts := splitList(s)
	for i, p := range parts {
		if p == "." {
			parts[i] = ""
		}
	}
	return parts
}
