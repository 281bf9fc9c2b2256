package detlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// sharedRead enforces two read-only/exclusive-write sharing contracts.
//
// Cross-worker: campaign workers and serve sessions share one topo.Network
// and one compiled routing.RouteTable by pointer (WithNetwork /
// WithRouteTable / Estimator reuse), so a post-construction write from any
// consumer is a data race and a cross-run determinism leak. The analyzer
// flags assignments (including op-assign, increment/decrement, and writes
// through index or dereference) to fields of the configured shared types
// from any package outside the configured constructor set. Pure label
// fields (display names carrying no structural or routed state) are exempt
// via Config.LabelFields.
//
// Cross-domain: the engine's domain-parallel phases run //sim:domain
// functions concurrently, one per router domain, against engine state that
// is mostly partitioned but not entirely — link handshake state, the
// arrival wheels and the input-occupancy words are reachable from every
// domain (Config.DomainSharedFields). A write to one of those fields inside
// a //sim:domain function — an assignment, or a call of a pointer-receiver
// method on it (a wheel's schedule or take) — is flagged unless the site
// carries a waiver stating why it is race-free: the write is on a link
// side or a list owned exclusively by this domain in this phase. An entry
// naming no field of the package it names, once that package is loaded, is
// reported too: a stale entry guards nothing.
var sharedRead = &Analyzer{
	Name: "sharedread",
	Doc:  "no writes to shared network/route-table state outside constructors, nor to cross-domain engine state inside //sim:domain functions",
	Run:  runSharedRead,
}

func runSharedRead(pass *Pass) error {
	runDomainShared(pass)
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

// runDomainShared walks every //sim:domain function and flags writes to the
// configured cross-domain shared fields. Constructor-package membership is
// irrelevant here: the contract is about phase-concurrent code, wherever it
// lives.
func runDomainShared(pass *Pass) {
	if len(pass.Cfg.DomainSharedFields) == 0 {
		return
	}
	fields := make(map[string]bool, len(pass.Cfg.DomainSharedFields))
	for _, f := range pass.Cfg.DomainSharedFields {
		fields[f] = true
		rest, field, _ := cutLast(f, ".")
		pkg, typ, _ := cutLast(rest, ".")
		if pkg == pass.Pkg.Path && !hasField(pass.Pkg.Types, typ, field) {
			pass.reportf(pass.Pkg.Files[0].Package, "DomainSharedFields entry %s names no field of package %s: a stale entry guards nothing — drop it or fix its name", f, pkg)
		}
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !funcDocHas(fd, domainAnnotation) || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						checkDomainWrite(pass, fields, lhs)
					}
				case *ast.IncDecStmt:
					checkDomainWrite(pass, fields, x.X)
				case *ast.CallExpr:
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok && pointerMethod(pass.Pkg.Info, sel) {
						checkDomainWrite(pass, fields, sel.X)
					}
				}
				return true
			})
		}
	}
}

// cutLast splits s around the last instance of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	if i := strings.LastIndex(s, sep); i >= 0 {
		return s[:i], s[i+len(sep):], true
	}
	return s, "", false
}

// hasField reports whether pkg declares a struct type typ with a field
// named field.
func hasField(pkg *types.Package, typ, field string) bool {
	tn, ok := pkg.Scope().Lookup(typ).(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == field {
			return true
		}
	}
	return false
}

// pointerMethod reports whether sel selects a method with a pointer
// receiver: calling it may mutate the receiver, so it is a write.
func pointerMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	_, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
	return ptr
}

// checkDomainWrite reports when the written expression bottoms out in one
// of the cross-domain shared fields.
func checkDomainWrite(pass *Pass, fields map[string]bool, lhs ast.Expr) {
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
				return
			}
			named := derefNamed(sel.Recv())
			if named == nil {
				return
			}
			key := qualifiedName(named) + "." + x.Sel.Name
			if fields[key] {
				pass.reportf(x.Pos(), "write to cross-domain shared field %s inside a %s function: domains run this phase concurrently — keep the effect in state the domain owns, or waive with the exclusivity argument", key, domainAnnotation)
				return
			}
			lhs = x.X
		default:
			return
		}
	}
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
