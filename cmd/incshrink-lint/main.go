// Command incshrink-lint runs incshrink's static-analysis suite (detclock,
// rngdraw, maporder, oblivtaint, goleak, atomicmix — see internal/analysis)
// over every package and test file of the module rooted at the current
// directory:
//
//	go run ./cmd/incshrink-lint
//
// It prints each finding as file:line:col: [analyzer] message and exits 2
// if there is any. Intentional violations are annotated in source with
// `//lint:allow <analyzer> <reason>`; the reason is mandatory, and an allow
// that suppresses nothing is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"

	"incshrink/internal/analysis"
)

func main() {
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: incshrink-lint (from the module root; it takes no arguments)")
		os.Exit(2)
	}
	findings, err := analysis.Lint(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "incshrink-lint:", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(2)
	}
}
