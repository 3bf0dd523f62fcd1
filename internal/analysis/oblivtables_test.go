package analysis

import (
	"go/types"
	"slices"
	"strings"
	"testing"
)

// TestOblivTaintTablesNameLiveCode keeps oblivtaint's two tables from going
// stale: every OblivTaintSanctioned and OblivTaintColumnParams key must name
// a function or method of the module, and every parameter the second lists
// must be in that function's signature. Both tables match by name, so an
// entry for a deleted kernel sanctions nothing and a renamed parameter
// silently loses its taint — neither makes the analyzer report anything.
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
	for _, key := range keys {
		sig := lookupFuncKey(pkgs, key)
		if sig == nil {
			t.Errorf("oblivtaint table entry %q names no function of the module", key)
			continue
		}
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
}

// lookupFuncKey resolves a funcKey, "<module-relative-pkg>.<Recv.>Name", to
// its signature, or nil if the module declares no such function or method.
func lookupFuncKey(pkgs map[string]*types.Package, key string) *types.Signature {
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
	if fn, ok := obj.(*types.Func); ok {
		return fn.Type().(*types.Signature)
	}
	return nil
}
