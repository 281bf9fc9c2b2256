package detlint

import (
	"go/ast"
	"go/types"
)

// sharedRead enforces the read-only sharing contract. Campaign workers and
// serve sessions share one topo.Network and one compiled
// routing.RouteTable by pointer (WithNetwork / WithRouteTable / Estimator
// reuse), so a post-construction write from any consumer is a data race
// and a cross-run determinism leak. The analyzer flags assignments
// (including op-assign, increment/decrement, and writes through index or
// dereference) to fields of the configured shared types from any package
// outside the configured constructor set. Pure label fields (display names
// carrying no structural or routed state) are exempt via
// Config.LabelFields.
var sharedRead = &Analyzer{
	Name: "sharedread",
	Run:  runSharedRead,
}

func runSharedRead(pass *Pass) error {
	for _, w := range pass.Cfg.SharedWriters {
		if pass.Pkg.Path == w {
			return nil
		}
	}
	shared := make(map[string]bool, len(pass.Cfg.SharedTypes))
	for _, t := range pass.Cfg.SharedTypes {
		shared[t] = true
	}
	labels := make(map[string]bool, len(pass.Cfg.LabelFields))
	for _, f := range pass.Cfg.LabelFields {
		labels[f] = true
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					checkSharedWrite(pass, shared, labels, lhs)
				}
			case *ast.IncDecStmt:
				checkSharedWrite(pass, shared, labels, x.X)
			}
			return true
		})
	}
	return nil
}

// checkSharedWrite reports when the written expression bottoms out in a
// field selection on one of the shared read-only types.
func checkSharedWrite(pass *Pass, shared, labels map[string]bool, lhs ast.Expr) {
	for {
		switch x := lhs.(type) {
		case *ast.ParenExpr:
			lhs = x.X
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		case *ast.SelectorExpr:
			sel, ok := pass.Pkg.Info.Selections[x]
			if !ok || sel.Kind() != types.FieldVal {
				// Not a field selection: a package-qualified name or a
				// method value; follow the receiver side no further.
				return
			}
			named := derefNamed(sel.Recv())
			if named == nil {
				return
			}
			name := qualifiedName(named)
			if shared[name] && !labels[x.Sel.Name] {
				pass.reportf(x.Pos(), "write to %s.%s outside its constructor packages: %s is shared read-only across workers (WithNetwork/WithRouteTable contract)", name, x.Sel.Name, named.Obj().Name())
				return
			}
			// The selected field may itself live inside a shared struct
			// further out (rare); keep unwrapping the receiver.
			lhs = x.X
		default:
			return
		}
	}
}
