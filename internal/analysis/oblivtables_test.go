package analysis

import (
	"go/types"
	"maps"
	"slices"
	"strings"
	"testing"
)

// TestOblivTaintTablesNameLiveCode keeps oblivtaint's tables from going
// stale: every OblivTaintSanctioned and OblivTaintColumnParams key must name
// a function or method of the module, every parameter the second lists must
// be in that function's signature, every source method (oblivBufferSources,
// tableSources) a method of its type, and every source field
// (oblivFieldSources) a field of its type. The tables match by name, so an
// entry for a deleted kernel sanctions nothing, a renamed parameter silently
// loses its taint, and a source naming a type the module lacks taints
// nothing — none of which makes the analyzer report anything.
func TestOblivTaintTablesNameLiveCode(t *testing.T) {
	_, units := loadModule(t)
	pkgs := map[string]*types.Package{}
	for _, u := range units {
		pkgs[u.Pkg.Path()] = u.Pkg
	}
	keys := slices.Clone(OblivTaintSanctioned)
	for key := range OblivTaintColumnParams {
		keys = append(keys, key)
	}
	for _, m := range slices.Sorted(maps.Keys(oblivBufferSources)) {
		keys = append(keys, "internal/oblivious.Buffer."+m)
	}
	for _, m := range slices.Sorted(maps.Keys(tableSources)) {
		keys = append(keys, "internal/table."+m)
	}
	for _, key := range keys {
		fn, _ := lookupKey(pkgs, key).(*types.Func)
		if fn == nil {
			t.Errorf("oblivtaint table entry %q names no function of the module", key)
			continue
		}
		sig := fn.Type().(*types.Signature)
		for _, param := range OblivTaintColumnParams[key] {
			found := false
			for i := 0; i < sig.Params().Len(); i++ {
				found = found || sig.Params().At(i).Name() == param
			}
			if !found {
				t.Errorf("OblivTaintColumnParams[%q] lists %q, which is not a parameter of %s", key, param, sig)
			}
		}
	}
	for rel, fields := range oblivFieldSources {
		for field := range fields {
			key := rel + "." + field
			if v, _ := lookupKey(pkgs, key).(*types.Var); v == nil || !v.IsField() {
				t.Errorf("oblivFieldSources entry %q names no field of the module", key)
			}
		}
	}
}

// lookupKey resolves a funcKey, "<module-relative-pkg>.<Type.>Name", to the
// function, method or field it names, or nil if the module declares none.
func lookupKey(pkgs map[string]*types.Package, key string) types.Object {
	slash := strings.LastIndex(key, "/")
	parts := strings.Split(key[slash+1:], ".")
	pkg := pkgs[ModulePath+"/"+key[:slash+1]+parts[0]]
	if pkg == nil || len(parts) < 2 || len(parts) > 3 {
		return nil
	}
	obj := pkg.Scope().Lookup(parts[1])
	if len(parts) == 3 {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return nil
		}
		obj, _, _ = types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg, parts[2])
	}
	return obj
}
