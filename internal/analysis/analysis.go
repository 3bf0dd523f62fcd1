// Package analysis is incshrink's static-analysis suite: six analyzers
// that machine-check the determinism, obliviousness and concurrency contracts
// every golden, snapshot and batched==sequential test silently relies on.
//
//   - detclock: no wall-clock reads or global math/rand draws in
//     deterministic packages.
//   - rngdraw: a ban on math/rand in snapshot-covered packages but
//     internal/dp, whose dp.Stream counts every draw and checkpoints its
//     own position, so snapshot/restore resumes the stream exactly.
//   - maporder: no order-dependent work (appends, encodes, hashes, string
//     or float accumulation) inside a range over a map — the classic
//     silent golden-breaker.
//   - oblivtaint: secret values never reach a branch, an index or an
//     allocation size in the packages that must be oblivious.
//   - goleak: a ban on go statements in library packages; each of the few
//     there states its join in a //lint:allow where it starts.
//   - atomicmix: a ban on the package-level sync/atomic functions, so every
//     atomic is typed (atomic.Int64 and kin) and cannot be read plainly.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer/Pass/Diagnostic and an analysistest-style fixture harness), but
// is implemented on the standard library only, so the module stays
// dependency-free: Load type-checks a tree of packages from source into the
// units go vet would analyze, and Lint runs the suite over the module. If
// the repo ever vendors x/tools, each analyzer ports mechanically.
//
// Intentional violations are annotated in the source with
//
//	//lint:allow <analyzer> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory — an allow comment without one is itself a finding — so the
// allowlist doubles as documentation of every site where the invariant is
// deliberately waived.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePath is the import path of the module the analyzers protect.
// Package-scoping decisions ("is this a deterministic package?") are made
// relative to it.
const ModulePath = "incshrink"

// An Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow comments.
	Name string

	// Doc is a one-paragraph description of the invariant.
	Doc string

	// Run inspects one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// A Pass carries one package's syntax and type information to an
// analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Report emits a finding.
func (p *Pass) Report(d Diagnostic) {
	if d.Analyzer == "" {
		d.Analyzer = p.Analyzer.Name
	}
	p.report(d)
}

// Reportf emits a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// All returns the full suite in a fixed order. The driver and the
// //lint:allow validator both treat this as the registry of known
// analyzer names.
func All() []*Analyzer {
	return []*Analyzer{DetClock, RNGDraw, MapOrder, OblivTaint, GoLeak, AtomicMix}
}

// KnownAnalyzer reports whether name is an analyzer in the suite,
// regardless of which analyzers a particular run has enabled.
func KnownAnalyzer(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Lint loads the module rooted at root and runs the whole suite over every
// unit, returning each finding as "file:line:col: [analyzer] message".
func Lint(root string) ([]string, error) {
	fset := token.NewFileSet()
	units, err := Load(fset, root, ModulePath)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, u := range units {
		for _, d := range Run(fset, u, All()) {
			out = append(out, fmt.Sprintf("%s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message))
		}
	}
	return out, nil
}

// Run executes the given analyzers over one unit and returns the surviving
// findings in deterministic (position, analyzer) order. Findings on lines
// carrying a matching //lint:allow comment (or whose preceding line carries
// one) are suppressed; malformed allow comments — unknown analyzer name,
// missing reason — are themselves reported, as is an allow for one of the
// given analyzers that suppressed nothing.
func Run(fset *token.FileSet, u *Unit, analyzers []*Analyzer) []Diagnostic {
	allows := collectAllows(fset, u.Files)

	enabled := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = true
	}

	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			report: func(d Diagnostic) {
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			diags = append(diags, Diagnostic{
				Pos:      token.NoPos,
				Analyzer: a.Name,
				Message:  fmt.Sprintf("internal error: %v", err),
			})
		}
	}

	var kept []Diagnostic
	for _, d := range diags {
		if !allows.suppresses(fset, d) {
			kept = append(kept, d)
		}
	}

	// Misuse of the escape hatch is a finding in its own right, but only
	// for analyzers this run is responsible for (unknown names are always
	// reported — they suppress nothing and rot silently).
	for _, al := range allows.entries {
		switch {
		case !KnownAnalyzer(al.analyzer):
			kept = append(kept, Diagnostic{Pos: al.pos, Analyzer: "lintallow",
				Message: fmt.Sprintf("//lint:allow names unknown analyzer %q", al.analyzer)})
		case al.reason == "" && enabled[al.analyzer]:
			kept = append(kept, Diagnostic{Pos: al.pos, Analyzer: al.analyzer,
				Message: fmt.Sprintf("//lint:allow %s needs a reason: //lint:allow %s <why this site is exempt>", al.analyzer, al.analyzer)})
		case !al.used && enabled[al.analyzer]:
			kept = append(kept, Diagnostic{Pos: al.pos, Analyzer: al.analyzer,
				Message: fmt.Sprintf("//lint:allow %s suppresses nothing on this line", al.analyzer)})
		}
	}

	sort.SliceStable(kept, func(i, j int) bool {
		pi, pj := fset.Position(kept[i].Pos), fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if kept[i].Analyzer != kept[j].Analyzer {
			return kept[i].Analyzer < kept[j].Analyzer
		}
		return kept[i].Message < kept[j].Message
	})
	return kept
}

// inModule reports whether path is the module root package or inside it.
func inModule(path string) bool {
	return path == ModulePath || strings.HasPrefix(path, ModulePath+"/")
}

// underAny reports whether the package path sits at or under any of the
// given module-relative prefixes ("cmd", "internal/serve", ...). The empty
// prefix matches the module root package.
func underAny(path string, prefixes []string) bool {
	if !inModule(path) {
		return false
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, ModulePath), "/")
	for _, p := range prefixes {
		if p == rel || (p == "" && rel == "") || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// pkgFunc resolves a *types.Func for a package-level function use, or nil.
func pkgFunc(obj types.Object) *types.Func {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

// namedTypePath returns the package path and name of t's core named type,
// unwrapping pointers and aliases; ok is false for unnamed types.
func namedTypePath(t types.Type) (pkgPath, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := types.Unalias(t).(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), true
}
