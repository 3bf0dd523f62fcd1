package analysis

import (
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// deadExportsKept are the exported symbols `make deadexports` tolerates with
// no reference outside their own package's tests, each with what keeps it.
var deadExportsKept = map[string]string{
	"gmw.Bit.Open":          "gate library; ROADMAP item 6 runs the engine on it",
	"gmw.EqualShape":        "gate library; ROADMAP item 6",
	"gmw.Eval.XOR":          "gate library; ROADMAP item 6",
	"gmw.Eval.OR":           "gate library; ROADMAP item 6",
	"gmw.Eval.MUX":          "gate library; ROADMAP item 6",
	"gmw.Eval.MUXWords":     "gate library; ROADMAP item 6 (CompareExchange fuses its mux into the comparator's last round)",
	"gmw.Eval.XORWords":     "gate library; ROADMAP item 6",
	"gmw.Eval.Equal":        "gate library; ROADMAP item 6",
	"gmw.Eval.Stats":        "gate library; ROADMAP item 6",
	"party.Resume":          "rejoin entry point; ROADMAP item 7 wires it to a reconnect",
	"query.Compiled.Conds":  "query.Rewrite outlives its callers for cmd/benchmark's probe; ROADMAP item 1",
	"query.Compiled.Oracle": "as above",
	"query.Compiled.Query":  "as above",
}

// configKnobsKept are the exported fields of the engine's configuration
// (core.Config and the deployment Shape it declares) and the library's
// deployment options (incshrink.Options), each with what keeps it settable: a
// deployment choice, a public size the deployment declares, or two non-test
// callers that set it differently. A value that can be derived is derived
// where the engine is built instead (the prune and spill bounds, the flush
// constants, the cost model, EP's raw delta).
var configKnobsKept = map[string]string{
	"core.Config.Epsilon":            "deployment choice: the privacy budget (Options.Epsilon; Figures 5 and 7 sweep it)",
	"core.Config.Omega":              "deployment choice: the truncation bound (ViewDef.Omega; EP and OTM raise it to the multiplicity)",
	"core.Config.Budget":             "deployment choice: the contribution budget (ViewDef.Budget; EP and OTM lift it)",
	"core.Config.T":                  "deployment choice: the sDPTimer interval (Options.T; Figures 7 and 9 sweep it)",
	"core.Config.Theta":              "deployment choice: the sDPANT threshold (Options.Theta; Figure 7 sets it from T)",
	"core.Config.MergeWindows":       "deployment choice (Options.MergeWindows)",
	"core.Config.Seed":               "deployment choice (Options.Seed; the experiments derive one per cell)",
	"core.Config.Shape":              "the public shape the deployment declares (below)",
	"core.Shape.UploadEvery":         "public size: the owners' upload schedule (Options.UploadEvery; CPDB uploads every 5 steps)",
	"core.Shape.Within":              "public size: the view's temporal window (ViewDef.Within)",
	"core.Shape.MaxLeft":             "public size: the padded left block (Options.MaxLeft; Figure 10 scales it)",
	"core.Shape.MaxRight":            "public size: the padded right block (Options.MaxRight; Figure 10 scales it)",
	"core.Shape.RightPublic":         "public relation kind (ViewDef.RightPublic; the CPDB preset sets it)",
	"core.Shape.RightDrivesPairs":    "declared cap policy: the delta cap omega·|new right|, truncated past it (the TPC-ds preset sets it; Open never does)",
	"core.Shape.PairRate":            "declared data rate, read only by spillBound: the experiments declare one and Open does not, so the two spill rules differ; ROADMAP item 24 merges them into one and deletes this field",
	"incshrink.Options.Epsilon":      "deployment choice",
	"incshrink.Options.Protocol":     "deployment choice",
	"incshrink.Options.T":            "deployment choice",
	"incshrink.Options.Theta":        "deployment choice",
	"incshrink.Options.UploadEvery":  "deployment choice: the owners' upload schedule",
	"incshrink.Options.MaxLeft":      "deployment choice: the public upload block size",
	"incshrink.Options.MaxRight":     "deployment choice: the public upload block size",
	"incshrink.Options.Seed":         "deployment choice",
	"incshrink.Options.MergeWindows": "deployment choice",
}

// TestDeadExports is `make deadexports` (ROADMAP item 10): an exported
// function, type, variable, constant or method of an internal package must
// be referenced from somewhere other than its own package's tests. Struct
// fields are not policed, and a method is exempt when its type implements
// an interface (of the module or the standard library) that has it, since
// it may be reached through that interface. The same units also show that
// no non-test file of the module references package sync's Pool, and that
// every exported field of core.Config, core.Shape and incshrink.Options is
// listed in configKnobsKept.
func TestDeadExports(t *testing.T) {
	fset, units := loadModule(t)
	isTest := func(pos token.Pos) bool { return strings.HasSuffix(fset.Position(pos).Filename, "_test.go") }
	// Symbols are keyed by declaration: a package's unit re-checks its
	// non-test files with its tests, so one declaration can be two objects.
	used := map[token.Pos]bool{}
	var pkgs []*types.Package
	for _, u := range units {
		pkgs = append(pkgs, u.Pkg)
		own := strings.TrimSuffix(u.Pkg.Path(), "_test")
		for id, obj := range u.Info.Uses {
			if obj.Pkg() == nil {
				continue
			}
			// Test files count as references to other packages only.
			if !isTest(id.Pos()) || obj.Pkg().Path() != own {
				used[obj.Pos()] = true
			}
			// The same load keeps the process-wide free lists deleted: scratch
			// rides on the buffer its operator mutates (DESIGN.md §7).
			if !isTest(id.Pos()) && obj.Pkg().Path() == "sync" && obj.Name() == "Pool" {
				t.Errorf("%s: a sync Pool in a non-test file; scratch has an owner", fset.Position(id.Pos()))
			}
		}
	}
	checkConfigKnobs(t, units)
	ifaces := reachedInterfaces(pkgs)
	var dead []string
	kept := map[string]bool{}
	for _, u := range units {
		for id, obj := range u.Info.Defs { //lint:allow maporder dead is sorted before it is reported
			if obj == nil || isTest(id.Pos()) || !obj.Exported() || used[obj.Pos()] ||
				!strings.HasPrefix(obj.Pkg().Path(), ModulePath+"/internal/") ||
				obj.Pkg().Path() == ModulePath+"/internal/analysis/analysistest" {
				continue
			}
			name := obj.Pkg().Name() + "." + obj.Name()
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				recv := fn.Type().(*types.Signature).Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				named, ok := recv.(*types.Named)
				// errors.Is and As reach Unwrap through an anonymous interface.
				if !ok || types.IsInterface(named) || fn.Name() == "Unwrap" || implementsOneWith(named, fn.Name(), ifaces) {
					continue
				}
				name = obj.Pkg().Name() + "." + named.Obj().Name() + "." + obj.Name()
			} else if obj.Parent() != obj.Pkg().Scope() {
				continue // a field, parameter or local
			}
			if kept[name] = true; deadExportsKept[name] == "" {
				dead = append(dead, fset.Position(id.Pos()).String()+": "+name)
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but referenced by nothing outside its own package's tests", d)
	}
	for name := range deadExportsKept {
		if !kept[name] {
			t.Errorf("deadExportsKept lists %s, which is referenced or gone", name)
		}
	}
}

// checkConfigKnobs fails for an exported field of core.Config, core.Shape or
// incshrink.Options that configKnobsKept does not list, and for an entry
// that names no field: a new knob is inventoried like a new export.
func checkConfigKnobs(t *testing.T, units []*Unit) {
	t.Helper()
	schema := map[string][]string{ModulePath: {"Options"}, ModulePath + "/internal/core": {"Config", "Shape"}}
	found := map[string]bool{}
	for _, u := range units {
		for _, name := range schema[u.Pkg.Path()] {
			tn, ok := u.Pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st := tn.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					found[u.Pkg.Name()+"."+name+"."+f.Name()] = true
				}
			}
		}
	}
	var unlisted []string
	for knob := range found {
		if configKnobsKept[knob] == "" {
			unlisted = append(unlisted, knob)
		}
	}
	sort.Strings(unlisted)
	for _, knob := range unlisted {
		t.Errorf("%s is a settable knob configKnobsKept does not list: derive it, or say why it is set", knob)
	}
	for knob := range configKnobsKept {
		if !found[knob] {
			t.Errorf("configKnobsKept lists %s, which is gone", knob)
		}
	}
}

// reachedInterfaces lists error and the named interfaces of every package
// the load reached, the standard library's included.
func reachedInterfaces(pkgs []*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				out = append(out, tn.Type().Underlying().(*types.Interface))
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

func implementsOneWith(recv types.Type, method string, ifaces []*types.Interface) bool {
	for _, i := range ifaces {
		for k := 0; k < i.NumMethods(); k++ {
			if i.Method(k).Name() == method && types.Implements(types.NewPointer(recv), i) {
				return true
			}
		}
	}
	return false
}
