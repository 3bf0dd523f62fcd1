package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"
	"strings"
)

// OblivTaintPackages lists the module-relative prefixes of the packages
// that carry the paper's data-obliviousness obligation: the arena and its
// oblivious operators, the secure-array cache they back, the framework
// that owns the secret update flow, and the GMW circuit layer. Inside
// them, control flow, memory addresses, allocation sizes, and call fan-out
// may depend only on public sizes and DP-released counters — never on
// secret record contents.
var OblivTaintPackages = []string{
	"internal/oblivious",
	"internal/securearray",
	"internal/core",
	"internal/gmw",
	// The transport and the standalone party driver move only frames whose
	// types and lengths are public protocol constants; policing them proves
	// the wire layer introduced no secret-dependent control flow or sizing.
	"internal/wire",
	"internal/party",
}

// OblivTaintSanctioned lists the constant-time / blinded primitives whose
// bodies are exempt from taint sinks, the same way DetClockSanctioned
// exempts the obs layer from the wall-clock ban. These are the functions
// that BUILD obliviousness for everyone else. Each entry is
// "<module-relative-pkg>.<Recv.>Name"; the sanction covers the whole
// function body, so keep the primitives small.
//
// What is left, and why:
//   - boolWord: the bool -> {0,1} word conversion — three lines the compiler
//     lowers to a flag move. It is all the sort, the scans and the counters
//     need: the sort kernel (exchange, sortKeys) is a borrow chain and a
//     masked XOR, fed layer windows whose cuts (forEachLayer, layerCut)
//     branch on layer geometry and the public lengths alone — a sort's
//     prefix and a merge's window of the last phase alike (mergeKeys takes
//     its keys as a registered secret column); the scan kernel (CountColumns,
//     outsideBlock) is two carry chains shifted into a verdict word, ANDed
//     with a word of the flag bitset and popcounted; CountBuffer and the
//     Buffer counter methods (AppendFrom, AppendRange, Truncate, CutPrefix,
//     ScanReal) add boolWord(flag) where they used to branch on it. All of
//     those pass the analyzer as ordinary code, and a branching
//     `if less { swap }` over the keys, `if flag[i] == 1 { n++ }` over a flag
//     column, a loop that clears a flag word's bits one at a time or a
//     branch on a block's cells in place of a carry is a finding
//     (TestLintGate seeds them).
//   - TightCompactInto: the fixed-topology compaction; its flag-dependent
//     moves are exactly the part a circuit evaluates obliviously.
//   - emitJoin: the linear scan of the paper's core operator, shared by the
//     from-scratch join and the merge join; key-group advance and
//     contribution bookkeeping run inside MPC in deployment. For the merge
//     join the same scan retires the union's keys: it keeps a key iff its
//     row lies behind its side's public cut, rebased by the cut — a select
//     on the secret key column, so it stays here. The sorts and the merge
//     around it (TruncatedSortMergeJoinInto, MergeJoinInto) pass as
//     ordinary code.
//
// The GMW evaluator is NOT here: its k-lane AND derives the output shares
// from the opened d/e words with a masked select, and every frame length is
// a function of the public lane count, so internal/gmw passes the analyzer
// as ordinary code (TestLintGate seeds a branching select into it).
var OblivTaintSanctioned = []string{
	"internal/oblivious.boolWord",
	"internal/oblivious.TightCompactInto",
	"internal/oblivious.emitJoin",
}

// OblivTaintColumnParams names, per function (keyed like
// OblivTaintSanctioned), the parameters that are secret columns handed in
// by the caller. The analysis is intraprocedural, so without this a kernel
// that takes its columns as plain slices would be checked against nothing:
// these parameters start tainted, and — like a source field's — their
// len/cap is public by the padding invariant.
var OblivTaintColumnParams = map[string][]string{
	"internal/oblivious.CountColumns": {"flag", "cols"},
	"internal/oblivious.outsideBlock": {"a", "b"},
	"internal/oblivious.mergeKeys":    {"keys"},
}

// oblivBufferSources are the oblivious.Buffer methods that read the
// secret columns: the view/dummy flag, payload cells, and the real-row
// counter (secret cardinality before DP release).
var oblivBufferSources = map[string]bool{
	"IsReal": true, "FlagByte": true, "At": true, "Row": true, "Real": true,
	"ScanReal": true, "Flags": true, "Payload": true,
}

// oblivFieldSources are raw struct fields whose reads taint, keyed by
// module-relative package, then "<TypeName>.<field>". Buffer's unexported
// columns matter so an in-package `b.flag[i]` cannot dodge the accessor
// list; Record is the by-value row form the joins take; Union's key column
// and its back buffer say, key by key, which row comes next in join order;
// View is the column-major materialized view, the same secrets in another
// layout.
var oblivFieldSources = map[string]map[string]bool{
	"internal/oblivious": {
		"Buffer.flag": true, "Buffer.pay": true, "Buffer.real": true,
		"Record.Row": true,
		"Union.keys": true, "Union.back": true,
	},
	"internal/securearray": {
		"View.flag": true, "View.cols": true, "View.real": true,
	},
}

// tableSources are the table.Flat / table.Column cell readers.
var tableSources = map[string]bool{
	"Flat.At": true, "Flat.Row": true, "Flat.Data": true, "Column.At": true,
}

// OblivTaint is the obliviousness taint analyzer: secret sources are
// arena flag/payload reads, table cell reads, and share reconstruction;
// sinks are branch conditions, index expressions, allocation sizes, and
// variadic fan-out. Everything between is an intraprocedural taint
// fixpoint per function, closures included.
var OblivTaint = &Analyzer{
	Name: "oblivtaint",
	Doc: "secret-tainted values (arena flags/payloads, table cells, reconstructed shares) must not " +
		"reach branch conditions, slice indexes, allocation sizes, or variadic fan-out in oblivious " +
		"packages; constant-time primitives are declared in OblivTaintSanctioned",
	Run: runOblivTaint,
}

func runOblivTaint(pass *Pass) error {
	if !underAny(pass.Pkg.Path(), OblivTaintPackages) {
		return nil
	}
	for _, f := range pass.Files {
		// Obliviousness is a production-control-flow contract. Test files
		// are exempt: assertions must read flags and
		// payloads in the clear to check them.
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || sanctionedFunc(pass, fd) {
				continue
			}
			t := &taintScan{pass: pass, tainted: map[types.Object]string{}, columns: map[types.Object]bool{}}
			t.seedColumnParams(fd)
			t.fixpoint(fd.Body)
			t.reportSinks(fd.Body)
		}
	}
	return nil
}

// funcKey names a declaration the way OblivTaintSanctioned and
// OblivTaintColumnParams do: "<module-relative-pkg>.<Recv.>Name".
func funcKey(pass *Pass, fd *ast.FuncDecl) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(pass.Pkg.Path(), ModulePath), "/")
	key := rel + "."
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if name := recvTypeName(fd.Recv.List[0].Type); name != "" {
			key += name + "."
		}
	}
	return key + fd.Name.Name
}

// sanctionedFunc reports whether the declaration matches an entry in
// OblivTaintSanctioned.
func sanctionedFunc(pass *Pass, fd *ast.FuncDecl) bool {
	return slices.Contains(OblivTaintSanctioned, funcKey(pass, fd))
}

// seedColumnParams taints the parameters OblivTaintColumnParams registers
// for fd and records them as columns (public length, secret contents).
func (t *taintScan) seedColumnParams(fd *ast.FuncDecl) {
	key := funcKey(t.pass, fd)
	names := OblivTaintColumnParams[key]
	for _, field := range fd.Type.Params.List {
		for _, id := range field.Names {
			if obj := t.pass.TypesInfo.Defs[id]; obj != nil && slices.Contains(names, id.Name) {
				t.tainted[obj] = key + "." + id.Name
				t.columns[obj] = true
			}
		}
	}
}

// recvTypeName unwraps *T and generic T[P] receivers to the base name.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// taintScan is the per-function taint state: the set of objects (locals,
// params via writes, captured vars) known to carry secret-derived values,
// each mapped to a human-readable origin.
type taintScan struct {
	pass    *Pass
	tainted map[types.Object]string
	columns map[types.Object]bool // registered column parameters (OblivTaintColumnParams)
	changed bool
}

// fixpoint iterates assignment/range propagation until the tainted set
// stops growing. Monotone (no strong updates): reassigning a tainted
// variable with a public value does not clear it — conservative, and it
// keeps the analysis order-insensitive.
func (t *taintScan) fixpoint(body *ast.BlockStmt) {
	for range 64 { // generous bound; real bodies converge in 2-3 rounds
		t.changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				t.assign(n.Lhs, n.Rhs)
			case *ast.ValueSpec:
				if len(n.Values) > 0 {
					lhs := make([]ast.Expr, len(n.Names))
					for i, id := range n.Names {
						lhs[i] = id
					}
					t.assign(lhs, n.Values)
				}
			case *ast.RangeStmt:
				if origin, ok := t.exprTaint(n.X); ok {
					t.taintLHS(n.Key, origin)
					t.taintLHS(n.Value, origin)
				}
			}
			return true
		})
		if !t.changed {
			return
		}
	}
}

// assign propagates taint from RHS expressions to LHS targets, covering
// both pairwise (a, b = x, y) and tuple (a, b = f()) forms.
func (t *taintScan) assign(lhs, rhs []ast.Expr) {
	if len(lhs) == len(rhs) {
		for i := range lhs {
			if origin, ok := t.exprTaint(rhs[i]); ok {
				t.taintLHS(lhs[i], origin)
			}
		}
		return
	}
	if len(rhs) == 1 {
		if origin, ok := t.exprTaint(rhs[0]); ok {
			for _, l := range lhs {
				t.taintLHS(l, origin)
			}
		}
	}
}

// taintLHS marks the root object of an assignment target. Writing a
// secret into a slice element or field taints the whole container: the
// later len()/index/range reads are what leak.
func (t *taintScan) taintLHS(e ast.Expr, origin string) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			// Field-granular: writing a secret into x.f taints the field
			// object (instance-insensitive), not the whole base value —
			// tainting the base would poison every other field read.
			if obj := t.pass.TypesInfo.Uses[x.Sel]; obj != nil {
				t.mark(obj, origin)
			}
			return
		case *ast.Ident:
			if x.Name == "_" {
				return
			}
			if obj := identDefUse(t.pass, x); obj != nil {
				t.mark(obj, origin)
			}
			return
		default:
			return
		}
	}
}

func (t *taintScan) mark(obj types.Object, origin string) {
	if _, ok := t.tainted[obj]; !ok {
		t.tainted[obj] = origin
		t.changed = true
	}
}

// identDefUse resolves an identifier through Defs (a := site) or Uses.
func identDefUse(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// exprTaint reports whether e evaluates to a secret-derived value, and
// the origin of the taint. Sources taint directly; operators, indexing,
// conversions, and calls with tainted operands propagate.
func (t *taintScan) exprTaint(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case nil:
		return "", false
	case *ast.ParenExpr:
		return t.exprTaint(e.X)
	case *ast.Ident:
		if obj := t.pass.TypesInfo.Uses[e]; obj != nil {
			if origin, ok := t.tainted[obj]; ok {
				return origin, true
			}
		}
		return "", false
	case *ast.SelectorExpr:
		if origin, ok := t.sourceField(e); ok {
			return origin, true
		}
		if obj := t.pass.TypesInfo.Uses[e.Sel]; obj != nil {
			if origin, ok := t.tainted[obj]; ok {
				return origin, true
			}
		}
		return t.exprTaint(e.X) // field of a tainted struct value
	case *ast.CallExpr:
		if origin, ok := t.sourceCall(e); ok {
			return origin, true
		}
		// len/cap of a source COLUMN is public: the arena's columns have
		// public length by the padding invariant — only their values are
		// secret. A slice variable that became tainted some other way
		// (grown under secret conditions) keeps its length tainted.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") && len(e.Args) == 1 {
			if _, isBuiltin := t.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				if arg, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok && t.columns[t.pass.TypesInfo.Uses[arg]] {
					return "", false
				}
				if sel, ok := ast.Unparen(e.Args[0]).(*ast.SelectorExpr); ok {
					if _, isSrc := t.sourceField(sel); isSrc {
						fieldTainted := false
						if obj := t.pass.TypesInfo.Uses[sel.Sel]; obj != nil {
							_, fieldTainted = t.tainted[obj]
						}
						if !fieldTainted {
							if _, baseTainted := t.exprTaint(sel.X); !baseTainted {
								return "", false
							}
						}
					}
				}
			}
		}
		// A call computing on secret operands yields a secret: this is
		// the rule that keeps len(secretSlice), int(flag), and helper
		// transforms tainted without interprocedural analysis.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if origin, ok := t.exprTaint(sel.X); ok {
				return origin, true
			}
		}
		for _, a := range e.Args {
			if origin, ok := t.exprTaint(a); ok {
				return origin, true
			}
		}
		return "", false
	case *ast.BinaryExpr:
		if origin, ok := t.exprTaint(e.X); ok {
			return origin, true
		}
		return t.exprTaint(e.Y)
	case *ast.UnaryExpr:
		return t.exprTaint(e.X)
	case *ast.IndexExpr:
		if origin, ok := t.exprTaint(e.X); ok {
			return origin, true
		}
		return t.exprTaint(e.Index)
	case *ast.SliceExpr:
		for _, x := range []ast.Expr{e.X, e.Low, e.High, e.Max} {
			if origin, ok := t.exprTaint(x); ok {
				return origin, true
			}
		}
		return "", false
	case *ast.StarExpr:
		return t.exprTaint(e.X)
	case *ast.TypeAssertExpr:
		return t.exprTaint(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if origin, ok := t.exprTaint(el); ok {
				return origin, true
			}
		}
		return "", false
	}
	return "", false
}

// sourceCall recognizes the accessor calls that mint taint.
func (t *taintScan) sourceCall(call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj := t.pass.TypesInfo.Uses[fun.Sel]
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			return "", false
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			pkgPath, tname, ok := namedTypePath(sig.Recv().Type())
			if !ok {
				return "", false
			}
			switch {
			case taintPkg(pkgPath, "internal/oblivious") && tname == "Buffer" && oblivBufferSources[fn.Name()]:
				return "oblivious.Buffer." + fn.Name(), true
			case taintPkg(pkgPath, "internal/oblivious") && tname == "Union" && fn.Name() == "Key":
				return "oblivious.Union.Key", true
			case taintPkg(pkgPath, "internal/table") && tableSources[tname+"."+fn.Name()]:
				return "table." + tname + "." + fn.Name(), true
			case taintPkg(pkgPath, "internal/gmw") && tname == "Bit" && fn.Name() == "Open":
				return "gmw.Bit.Open", true
			}
			return "", false
		}
		// Package-level reveals: share reconstruction.
		if taintPkg(fn.Pkg().Path(), "internal/secretshare") && strings.HasPrefix(fn.Name(), "Recover") {
			return "secretshare." + fn.Name(), true
		}
	}
	return "", false
}

// sourceField recognizes raw secret-column field reads.
func (t *taintScan) sourceField(sel *ast.SelectorExpr) (string, bool) {
	obj := t.pass.TypesInfo.Uses[sel.Sel]
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() {
		return "", false
	}
	s, ok := t.pass.TypesInfo.Selections[sel]
	if !ok {
		return "", false
	}
	pkgPath, tname, ok := namedTypePath(s.Recv())
	if !ok {
		return "", false
	}
	key := tname + "." + v.Name()
	for rel, fields := range oblivFieldSources {
		if fields[key] && taintPkg(pkgPath, rel) {
			return path.Base(rel) + "." + key, true
		}
	}
	return "", false
}

// taintPkg matches a module-relative source package, accepting the
// analysistest stub under testdata/src that stands in for it.
func taintPkg(path, rel string) bool {
	return path == ModulePath+"/"+rel || strings.HasSuffix(path, "/"+rel)
}

// reportSinks walks the (fixpointed) body and flags tainted values at the
// four sink shapes. Condition subtrees that already reported are skipped
// so `if contrib[i] > bound` is one finding, not two.
func (t *taintScan) reportSinks(body *ast.BlockStmt) {
	reported := map[ast.Node]bool{}
	cond := func(e ast.Expr, what string) {
		if e == nil {
			return
		}
		if origin, ok := t.exprTaint(e); ok {
			t.report(e.Pos(), origin, what)
			reported[e] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			cond(n.Cond, "controls a branch condition")
		case *ast.ForStmt:
			cond(n.Cond, "controls a loop condition")
		case *ast.SwitchStmt:
			if n.Tag != nil {
				cond(n.Tag, "controls a switch tag")
			} else if n.Body != nil {
				for _, cc := range n.Body.List {
					if cc, ok := cc.(*ast.CaseClause); ok {
						for _, e := range cc.List {
							cond(e, "controls a switch case")
						}
					}
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if reported[n] {
			return false // already one finding for this whole condition
		}
		switch n := n.(type) {
		case *ast.IndexExpr:
			// Address selection: only the index position is a sink;
			// reading a[i] with public i from a secret-holding slice is
			// the normal oblivious access pattern.
			if origin, ok := t.exprTaint(n.Index); ok {
				t.report(n.Index.Pos(), origin, "selects a memory address (index expression)")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "make" {
				if _, isBuiltin := t.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					for _, a := range n.Args[1:] {
						if origin, ok := t.exprTaint(a); ok {
							t.report(a.Pos(), origin, "determines an allocation size")
						}
					}
					return true
				}
			}
			if n.Ellipsis.IsValid() && len(n.Args) > 0 && !t.publicCount(n.Args[len(n.Args)-1]) {
				if origin, ok := t.exprTaint(n.Args[len(n.Args)-1]); ok {
					t.report(n.Ellipsis, origin, "fans out a variadic call's argument count")
				}
			}
		}
		return true
	})
}

// publicCount reports whether the spread argument e has a public element
// count whatever it holds: a reslice x[lo:hi] with both bounds untainted
// (an omitted lo is 0) spreads exactly hi-lo elements — the bulk
// column-to-column copy `append(dst, src.flag[lo:hi]...)`.
func (t *taintScan) publicCount(e ast.Expr) bool {
	s, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok || s.High == nil {
		return false
	}
	_, loTainted := t.exprTaint(s.Low)
	_, hiTainted := t.exprTaint(s.High)
	return !loTainted && !hiTainted
}

func (t *taintScan) report(pos token.Pos, origin, what string) {
	t.pass.Reportf(pos,
		"secret-tainted value (from %s) %s in oblivious package %s; "+
			"control flow and memory access may depend only on public sizes and DP-released counts "+
			"(fix, add the primitive to OblivTaintSanctioned, or //lint:allow oblivtaint <reason>)",
		origin, what, t.pass.Pkg.Path())
}

// isTestFile reports whether f was parsed from a _test.go file.
func isTestFile(pass *Pass, f *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(f.Package).Filename, "_test.go")
}
