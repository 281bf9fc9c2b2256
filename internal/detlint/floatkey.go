package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floatKey guards the canonical-encoding and PointKey paths against
// floating-point identity. A float map key (or a `==` over a float-bearing
// spec struct) makes equality depend on the bit pattern a value happened
// to arrive with — +0 vs -0 compare equal but hash apart over history, NaN
// never matches itself, and a value recomputed through a different
// arithmetic route may differ in the last ulp. Canonical bytes and store
// keys must instead compare through the canonical JSON encoding, which
// fixes one representation per value.
var floatKey = &Analyzer{
	Name: "floatkey",
	Run:  runFloatKey,
}

func runFloatKey(pass *Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.MapType:
				tv, ok := info.Types[x.Key]
				if ok && tv.Type != nil && hasFloat(tv.Type, nil) {
					pass.reportf(x.Key.Pos(), "floating-point map key %s: float identity is representation-dependent; key by the canonical encoding instead", types.ExprString(x.Key))
				}
			case *ast.BinaryExpr:
				if x.Op != token.EQL && x.Op != token.NEQ {
					return true
				}
				tv, ok := info.Types[x.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isStruct := tv.Type.Underlying().(*types.Struct); isStruct && hasFloat(tv.Type, nil) {
					pass.reportf(x.Pos(), "%s on float-bearing struct %s: compare through the canonical encoding instead", x.Op, tv.Type)
				}
			}
			return true
		})
	}
	return nil
}

// hasFloat reports whether t contains a floating-point or complex
// component reachable through structs, arrays, named types and aliases.
// Pointers, slices, maps, channels, funcs and interfaces are boundaries:
// they compare by reference, not by float value.
func hasFloat(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	switch x := t.(type) {
	case *types.Basic:
		return x.Info()&(types.IsFloat|types.IsComplex) != 0
	case *types.Named, *types.Alias:
		if seen == nil {
			seen = make(map[types.Type]bool)
		}
		seen[t] = true
		return hasFloat(t.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < x.NumFields(); i++ {
			if hasFloat(x.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return hasFloat(x.Elem(), seen)
	}
	return false
}
