package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc turns the engine's aggregate zero-allocation tests
// (AllocsPerRun==0 over the steady-state cycle loop) into line-precise
// diagnostics. Inside functions annotated `//sim:hot` it flags the
// constructs that cause heap allocation: make/new, composite literals,
// append that can grow its backing array, interface boxing, fmt calls,
// non-constant string concatenation, and escaping closures. It also
// enforces annotation propagation: a hot function may only call
// same-package functions that are themselves annotated, so the `//sim:hot`
// set stays closed over the real call graph.
//
// Two amortised shapes pass without a waiver: self-append
// (`x = append(x, ...)`, the freelist/ring recycling pattern whose
// capacity is retained across cycles) and a function literal passed
// directly as a call argument (a visitor handed to an iteration helper,
// which does not escape and is measured allocation-free).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//sim:hot functions must not contain allocation-causing constructs",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	hot, declared := hotFuncs(pass.Pkg)
	//detlint:ordered diagnostics are position-sorted by Run before reporting; visit order cannot reach the output
	for fn, fd := range declared {
		if hot[fn] && fd.Body != nil {
			checkHotBody(pass, fd, hot, declared)
		}
	}
	return nil
}

// checkHotBody inspects one annotated function body for allocating
// constructs and calls out of the annotated set.
func checkHotBody(pass *Pass, fd *ast.FuncDecl, hot map[*types.Func]bool, declared map[*types.Func]*ast.FuncDecl) {
	info := pass.Pkg.Info
	body := fd.Body

	// Pre-pass: find the amortised shapes that are exempt (self-appends,
	// immediate-call-argument closures) and the composite literals whose
	// address is taken (&T{} always heap-allocates; a plain value literal
	// does not).
	selfAppend := make(map[*ast.CallExpr]bool)
	immediateLit := make(map[*ast.FuncLit]bool)
	addrLit := make(map[*ast.CompositeLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || i >= len(x.Lhs) || !isBuiltin(info, call.Fun, "append") {
					continue
				}
				if len(call.Args) > 0 && types.ExprString(call.Args[0]) == types.ExprString(x.Lhs[i]) {
					selfAppend[call] = true
				}
			}
		case *ast.CallExpr:
			for _, arg := range x.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					immediateLit[lit] = true
				}
			}
		case *ast.UnaryExpr:
			if lit, ok := x.X.(*ast.CompositeLit); ok && x.Op == token.AND {
				addrLit[lit] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			// Value struct/array literals live on the stack; the heap
			// allocations are slice and map literals and &T{}.
			if addrLit[x] {
				pass.Reportf(x.Pos(), "&-of composite literal allocates in //sim:hot function %s", fd.Name.Name)
			} else if tv, ok := info.Types[x]; ok && allocLit(tv.Type) {
				pass.Reportf(x.Pos(), "%s literal allocates in //sim:hot function %s", litKind(tv.Type), fd.Name.Name)
			}
		case *ast.FuncLit:
			if !immediateLit[x] {
				pass.Reportf(x.Pos(), "closure may escape and allocate in //sim:hot function %s", fd.Name.Name)
			}
		case *ast.CallExpr:
			checkHotCall(pass, fd, x, selfAppend, hot, declared)
		case *ast.AssignStmt:
			if x.Tok == token.ASSIGN {
				for i, rhs := range x.Rhs {
					if i < len(x.Lhs) && boxes(info, x.Lhs[i], rhs) {
						pass.Reportf(rhs.Pos(), "assignment boxes %s into an interface in //sim:hot function %s", types.ExprString(rhs), fd.Name.Name)
					}
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := info.Types[x]; ok && tv.Value == nil && isString(tv.Type) {
					pass.Reportf(x.Pos(), "string concatenation allocates in //sim:hot function %s", fd.Name.Name)
				}
			}
		}
		return true
	})
}

// checkHotCall classifies one call inside a hot body: builtin allocators,
// fmt, interface-boxing conversions, and propagation to non-hot
// same-package callees.
func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, selfAppend map[*ast.CallExpr]bool, hot map[*types.Func]bool, declared map[*types.Func]*ast.FuncDecl) {
	info := pass.Pkg.Info

	// Type conversion, not a call: T(x) boxes when T is an interface.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && boxesType(info, tv.Type, call.Args[0]) {
			pass.Reportf(call.Pos(), "conversion boxes %s into an interface in //sim:hot function %s", types.ExprString(call.Args[0]), fd.Name.Name)
		}
		return
	}

	switch {
	case isBuiltin(info, call.Fun, "make"):
		pass.Reportf(call.Pos(), "make allocates in //sim:hot function %s", fd.Name.Name)
		return
	case isBuiltin(info, call.Fun, "new"):
		pass.Reportf(call.Pos(), "new allocates in //sim:hot function %s", fd.Name.Name)
		return
	case isBuiltin(info, call.Fun, "append"):
		if !selfAppend[call] {
			pass.Reportf(call.Pos(), "append may grow and allocate in //sim:hot function %s; use the self-append recycling form or preallocate", fd.Name.Name)
		}
		return
	}

	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && pkgNameOf(info, sel.X) == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s allocates in //sim:hot function %s", sel.Sel.Name, fd.Name.Name)
		return
	}

	// Propagation: a hot function may only call same-package declared
	// functions that are themselves annotated. Interface methods,
	// func-valued variables and cross-package calls are outside the
	// annotation set and are not checked here.
	callee := calleeFunc(info, call.Fun)
	if callee == nil || callee.Pkg() == nil || callee.Pkg() != pass.Pkg.Types {
		return
	}
	if _, declaredHere := declared[callee]; declaredHere && !hot[callee] {
		pass.Reportf(call.Pos(), "//sim:hot function %s calls %s, which is not annotated //sim:hot", fd.Name.Name, callee.Name())
	}
}

// calleeFunc resolves a call's function expression to the declared
// *types.Func it names (generic instantiations resolve to their origin),
// or nil for func values, builtins and interface dispatch.
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	var id *ast.Ident
	switch x := fun.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		return calleeFunc(info, x.X)
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// isBuiltin reports whether fun names the given universe builtin.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	return ok && id.Name == name && info.Uses[id] == types.Universe.Lookup(name)
}

// boxes reports whether assigning rhs to lhs stores a concrete value into
// an interface, forcing a heap allocation for the boxed copy.
func boxes(info *types.Info, lhs, rhs ast.Expr) bool {
	ltv, ok := info.Types[lhs]
	if !ok {
		return false
	}
	return boxesType(info, ltv.Type, rhs)
}

// boxesType reports whether storing rhs into a value of type dst boxes a
// concrete value into an interface.
func boxesType(info *types.Info, dst types.Type, rhs ast.Expr) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	rtv, ok := info.Types[rhs]
	if !ok || rtv.Type == nil {
		return false
	}
	if rtv.IsNil() || types.IsInterface(rtv.Type) {
		return false
	}
	// Pointer-free word-sized values (small ints held in pointer-shaped
	// boxes) still allocate in the general case; report uniformly.
	return true
}

// allocLit reports whether a composite literal of type t heap-allocates
// its backing storage regardless of how the value is used.
func allocLit(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// litKind names the allocating literal kind for diagnostics.
func litKind(t types.Type) string {
	if _, ok := t.Underlying().(*types.Map); ok {
		return "map"
	}
	return "slice"
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
