package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// RNGDrawPackages lists the module-relative prefixes of the
// snapshot-covered packages: the ones whose state (including RNG stream
// positions) rides in a PR-4 snapshot, so that a restored engine resumes
// bit-identically. Inside them, every math/rand source must be wrapped in
// dp.CountingRNG at the construction site — an unwrapped source draws
// words nobody counts, and the next restore forks the noise stream.
//
// The empty string is the module root package.
var RNGDrawPackages = []string{
	"", // module root (incshrink.DB owns framework state)
	"internal/core",
	"internal/dp",
	"internal/mpc",
	"internal/gmw",
	"internal/secretshare",
	"internal/snapshot",
	"internal/oblivious",
	"internal/securearray",
	"internal/table",
	"internal/party",
}

// countingWrapper identifies dp.NewCountingRNG.
const (
	countingPkg  = ModulePath + "/internal/dp"
	countingFunc = "NewCountingRNG"
)

// RNGDraw requires RNG construction in snapshot-covered packages to flow
// through dp.CountingRNG. The wrapper delegates draws unchanged, so
// wrapping never perturbs an existing stream — there is no cost to
// complying, only to forgetting.
var RNGDraw = &Analyzer{
	Name: "rngdraw",
	Doc: "math/rand sources in snapshot-covered packages must be wrapped in dp.CountingRNG " +
		"at construction, so snapshots record every draw and restores fast-forward exactly",
	Run: runRNGDraw,
}

func runRNGDraw(pass *Pass) error {
	if !underAny(pass.Pkg.Path(), RNGDrawPackages) {
		return nil
	}
	for _, f := range pass.Files {
		// A test-local source never reaches a snapshot, so rngdraw skips
		// _test.go files.
		if isTestFile(pass, f) {
			continue
		}
		// Walk with an explicit ancestor stack: a constructor call is
		// legal exactly when some enclosing call is dp.NewCountingRNG,
		// i.e. the raw source never exists outside the wrapper
		// expression.
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if !randConstructors[fn.Name()] {
					return true // global draws are detclock's beat
				}
			default:
				return true
			}
			if wrappedInCounting(pass, stack) {
				return true
			}
			// rand.New(rand.NewSource(s)) is one violation, not two:
			// only the outermost unwrapped constructor reports.
			if enclosedByRandConstructor(pass, stack) {
				return true
			}
			pass.Reportf(call.Pos(),
				"uncounted RNG: %s.%s in snapshot-covered package %s must be wrapped as dp.%s(...) at the construction site, or snapshot/restore forks the stream",
				fn.Pkg().Path(), fn.Name(), pass.Pkg.Path(), countingFunc)
			return true
		})
	}
	return nil
}

// calleeFunc resolves the package-level function a call invokes, or nil.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return pkgFunc(pass.TypesInfo.Uses[fun.Sel])
	case *ast.Ident:
		return pkgFunc(pass.TypesInfo.Uses[fun])
	}
	return nil
}

// wrappedInCounting reports whether any enclosing expression on the stack
// is a call to dp.NewCountingRNG (checked within the current statement
// only — crossing a statement boundary means the raw source was bound to
// a name first).
func wrappedInCounting(pass *Pass, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(pass, n); fn != nil &&
				fn.Name() == countingFunc && isDPPath(fn.Pkg().Path()) {
				return true
			}
		case ast.Stmt:
			return false
		}
	}
	return false
}

// enclosedByRandConstructor reports whether the expression sits inside
// another math/rand constructor call within the same statement.
func enclosedByRandConstructor(pass *Pass, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(pass, n); fn != nil && randConstructors[fn.Name()] &&
				(fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") {
				return true
			}
		case ast.Stmt:
			return false
		}
	}
	return false
}

// isDPPath matches the real dp package and the analysistest stub that
// stands in for it under testdata/src.
func isDPPath(path string) bool {
	return path == countingPkg || strings.HasSuffix(path, "/internal/dp")
}
