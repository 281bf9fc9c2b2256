package detlint

import (
	"go/ast"
	"go/types"
)

// mapOrder flags `range` over a map. Go randomises map iteration order per
// run, so any map range whose body's effect depends on visit order (output
// bytes, float accumulation, slice append of values, first-match selection)
// breaks the golden byte-identity and parallel==serial contracts
// non-deterministically. Two shapes are accepted without a waiver: the
// sorted-keys idiom (the body only appends the key to a slice that the
// function later sorts) and sites carrying `//detlint:ordered <reason>`.
var mapOrder = &Analyzer{
	Name: "maporder",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := info.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if keys := sortedKeysIdiom(info, rng); keys != nil && sortCalledAfter(info, fd.Body, rng, keys) {
					return true
				}
				pass.reportf(rng.Pos(), "range over map: iteration order is nondeterministic; collect and sort keys, or waive with //detlint:ordered <reason>")
				return true
			})
		}
	}
	return nil
}

// sortedKeysIdiom recognises a range body that is exactly one statement of
// the form `keys = append(keys, k)` where k is the range's key variable,
// and returns the keys slice's object (nil otherwise). Such a loop is
// order-insensitive on its own; the caller must still confirm the slice is
// sorted afterwards.
func sortedKeysIdiom(info *types.Info, rng *ast.RangeStmt) types.Object {
	keyID, ok := rng.Key.(*ast.Ident)
	if !ok || rng.Value != nil {
		return nil
	}
	keyObj := info.Defs[keyID]
	if keyObj == nil {
		keyObj = info.Uses[keyID]
	}
	if keyObj == nil || len(rng.Body.List) != 1 {
		return nil
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return nil
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" || info.Uses[fn] != types.Universe.Lookup("append") {
		return nil
	}
	arg0, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	arg1, ok := call.Args[1].(*ast.Ident)
	if !ok {
		return nil
	}
	lhsObj := info.Uses[lhs]
	if lhsObj == nil || lhsObj != info.Uses[arg0] || info.Uses[arg1] != keyObj {
		return nil
	}
	return lhsObj
}

// sortFuncs maps importable package paths to the sort entry points whose
// first argument is the slice being ordered.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortCalledAfter reports whether the function body contains, after the
// range statement, a recognised sort call whose first argument is the keys
// slice.
func sortCalledAfter(info *types.Info, body *ast.BlockStmt, rng *ast.RangeStmt, keys types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		names := sortFuncs[pkgNameOf(info, sel.X)]
		if names == nil || !names[sel.Sel.Name] {
			return true
		}
		arg, ok := call.Args[0].(*ast.Ident)
		if ok && info.Uses[arg] == keys {
			found = true
		}
		return true
	})
	return found
}
