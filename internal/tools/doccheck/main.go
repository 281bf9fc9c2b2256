// Command doccheck keeps the module's exported surface documented and
// used. It loads every package of the module with internal/detlint's
// loader (go list -export plus go/types) and applies two rules to each
// non-main package:
//
//   - Every exported identifier carries a doc comment. Struct fields and
//     interface methods are exempt (the type's comment is the
//     documentation unit), and so are methods of unexported types.
//   - Every top-level exported name, and every exported method of an
//     exported type, has a caller: some non-test file outside its package
//     (benchmark/ and the commands included) references it. A type also
//     counts as used when a used name's signature or a used type's
//     exported field names it, or when one of its methods is used. A
//     method counts as used when it implements an interface that the
//     loaded packages declare or import (sim.Source, fmt.Stringer,
//     json.Unmarshaler, error) and its type is used or built by a
//     composite literal in non-test code, its own package's included,
//     since calls through the interface reach it; a type that only tests
//     construct does not pass this way. A doc comment line starting
//     "keep:" states why a name stays without a caller.
//
// Usage, from the module root:
//
//	doccheck
//
// Each finding is reported as file:line: <kind> <name> for a missing doc
// comment, or file:line: unused <kind> <name>. The exit code is 1 when
// there is any finding and 2 when the module does not load.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/detlint"
)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: doccheck (run from the module root; it takes no arguments)")
		os.Exit(2)
	}
	findings, err := check(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented or unused exported identifier(s)\n", len(findings))
		os.Exit(1)
	}
}

// check loads the module rooted at dir and returns both rules' findings,
// sorted, with paths relative to dir.
func check(dir string) ([]string, error) {
	pkgs, err := detlint.Load(dir, []string{"./..."})
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel := func(p token.Position) string {
		if r, err := filepath.Rel(root, p.Filename); err == nil {
			p.Filename = r
		}
		return fmt.Sprintf("%s:%d", p.Filename, p.Line)
	}
	var out []string
	for _, p := range pkgs {
		if p.Types.Name() == "main" {
			continue
		}
		for _, f := range p.Files {
			for _, d := range declared(p, f) {
				if !d.doc {
					out = append(out, fmt.Sprintf("%s: %s %s", rel(d.pos), d.kind, d.name))
				}
			}
		}
	}
	for _, d := range unused(pkgs) {
		out = append(out, fmt.Sprintf("%s: unused %s %s", rel(d.pos), d.kind, d.name))
	}
	sort.Strings(out)
	return out, nil
}

// decl is one exported declaration the rules check.
type decl struct {
	pos  token.Position
	kind string // func, method, type, const or var
	name string // Name, or Recv.Name for a method
	obj  types.Object
	doc  bool // it has a doc comment
	keep bool // its doc comment has a "keep:" line
}

// declared lists a file's top-level exported names and the exported
// methods of its exported types.
func declared(p *detlint.Package, f *ast.File) []decl {
	var out []decl
	add := func(id *ast.Ident, kind, name string, docs ...*ast.CommentGroup) {
		d := decl{pos: p.Fset.Position(id.Pos()), kind: kind, name: name, obj: p.Info.Defs[id]}
		for _, c := range docs {
			d.doc = d.doc || c != nil
			d.keep = d.keep || hasKeep(c)
		}
		out = append(out, d)
	}
	for _, dl := range f.Decls {
		switch d := dl.(type) {
		case *ast.FuncDecl:
			switch {
			case !d.Name.IsExported():
			case d.Recv == nil:
				add(d.Name, "func", d.Name.Name, d.Doc)
			default:
				if recv := recvName(d.Recv); ast.IsExported(recv) {
					add(d.Name, "method", recv+"."+d.Name.Name, d.Doc)
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(s.Name, "type", s.Name.Name, d.Doc, s.Doc, s.Comment)
					}
				case *ast.ValueSpec:
					// A comment on the grouped decl, the spec line, or a
					// trailing line comment all count.
					for _, n := range s.Names {
						if n.IsExported() {
							add(n, kindOf(d.Tok), n.Name, d.Doc, s.Doc, s.Comment)
						}
					}
				}
			}
		}
	}
	return out
}

// recvName names a method receiver's base type.
func recvName(fl *ast.FieldList) string {
	t := fl.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// kindOf names a value declaration for the report line.
func kindOf(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}

// hasKeep reports whether a doc comment has a line starting "keep:".
func hasKeep(doc *ast.CommentGroup) bool {
	return doc != nil && slices.ContainsFunc(strings.Split(doc.Text(), "\n"), func(line string) bool {
		return strings.HasPrefix(line, "keep:")
	})
}

// unused returns the checked declarations of the non-main packages that
// nothing uses. Each package is type-checked on its own, so an object seen
// from an importer is a different value from the one its package defines:
// uses are matched by key.
func unused(pkgs []*detlint.Package) []decl {
	byKey := map[string]decl{}
	for _, p := range pkgs {
		if p.Types.Name() == "main" {
			continue
		}
		for _, f := range p.Files {
			for _, d := range declared(p, f) {
				if d.obj != nil {
					byKey[key(d.obj)] = d
				}
			}
		}
	}

	used := map[string]bool{}
	var work []types.Object
	var use func(obj types.Object)
	use = func(obj types.Object) {
		k := key(obj)
		if k == "" || used[k] {
			return
		}
		used[k] = true
		if d, ok := byKey[k]; ok {
			work = append(work, d.obj)
		}
		if recv := recvNamed(obj); recv != nil {
			use(recv.Obj())
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses { //detlint:ordered use only sets flags; the result is sorted
			if obj.Pkg() != nil && obj.Pkg().Path() != p.Path {
				use(obj)
			}
		}
	}
	for _, d := range byKey { //detlint:ordered use only sets flags; the result is sorted
		if d.keep {
			use(d.obj)
		}
	}
	// A used name's signature and a used type's exported fields make the
	// types they name used. A method that implements an interface is used
	// once its type is used through the other rules or non-test code
	// constructs it: a call through the interface reaches it only on a
	// value some caller made.
	impl, made := implementing(pkgs), constructed(pkgs)
	seen := map[types.Type]bool{}
	for len(work) > 0 {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			t := obj.Type()
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				t = t.Underlying()
			}
			namedIn(t, seen, func(tn *types.TypeName) { use(tn) })
		}
		for _, m := range impl {
			if recv := recvNamed(m); recv != nil && (used[key(recv.Obj())] || made[key(recv.Obj())]) {
				use(m)
			}
		}
	}

	var out []decl
	for k, d := range byKey { //detlint:ordered out is sorted by the caller
		if !used[k] {
			out = append(out, d)
		}
	}
	return out
}

// constructed returns the keys of the named types that a composite literal
// in a loaded (non-test) file builds.
func constructed(pkgs []*detlint.Package) map[string]bool {
	made := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok {
					if named, ok := types.Unalias(p.Info.TypeOf(lit)).(*types.Named); ok {
						made[key(named.Origin().Obj())] = true
					}
				}
				return true
			})
		}
	}
	return made
}

// key names a package-level object or a method module-wide: "path.Name"
// or "path.Recv.Name". Other objects (locals, fields, interface methods)
// have no key.
func key(obj types.Object) string {
	if n := recvNamed(obj); n != nil {
		return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
	}
	if _, ok := obj.(*types.Func); ok && obj.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvNamed returns the named non-interface type whose method obj is, or
// nil.
func recvNamed(obj types.Object) *types.Named {
	f, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := f.Origin().Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && !types.IsInterface(n) {
		return n
	}
	return nil
}

// namedIn calls fn for each named type or alias that t names, looking
// through aliases, pointers, containers, signatures, type arguments and
// exported struct fields, but not into the named types themselves.
func namedIn(t types.Type, seen map[types.Type]bool, fn func(*types.TypeName)) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch x := t.(type) {
	case *types.Named:
		fn(x.Origin().Obj())
		for a := range x.TypeArgs().Types() {
			namedIn(a, seen, fn)
		}
	case *types.Alias:
		fn(x.Obj())
		namedIn(types.Unalias(x), seen, fn)
	case *types.Pointer:
		namedIn(x.Elem(), seen, fn)
	case *types.Slice:
		namedIn(x.Elem(), seen, fn)
	case *types.Array:
		namedIn(x.Elem(), seen, fn)
	case *types.Chan:
		namedIn(x.Elem(), seen, fn)
	case *types.Map:
		namedIn(x.Key(), seen, fn)
		namedIn(x.Elem(), seen, fn)
	case *types.Signature:
		for v := range x.Params().Variables() {
			namedIn(v.Type(), seen, fn)
		}
		for v := range x.Results().Variables() {
			namedIn(v.Type(), seen, fn)
		}
	case *types.Struct:
		for f := range x.Fields() {
			if f.Exported() {
				namedIn(f.Type(), seen, fn)
			}
		}
	case *types.Interface:
		for m := range x.Methods() {
			namedIn(m.Type(), seen, fn)
		}
	}
}

// implementing returns the methods through which a loaded package's named
// type implements an interface that the loaded packages declare or import
// (error included), so that a call through the interface counts as a use.
func implementing(pkgs []*detlint.Package) []types.Object {
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	addScope := func(s *types.Scope) {
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	addScope(types.Universe)
	var named []*types.Named
	for _, p := range pkgs {
		addScope(p.Types.Scope())
		for _, imp := range p.Types.Imports() {
			addScope(imp.Scope())
		}
		for _, name := range p.Types.Scope().Names() {
			if tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}

	var out []types.Object
	for _, n := range named {
		mset := types.NewMethodSet(types.NewPointer(n))
		sigs := map[string]string{}
		for sel := range mset.Methods() {
			sigs[sel.Obj().Name()] = sigKey(sel.Type().(*types.Signature))
		}
		for _, it := range ifaces {
			if implements(sigs, it) {
				for m := range it.Methods() {
					out = append(out, mset.Lookup(m.Pkg(), m.Name()).Obj())
				}
			}
		}
	}
	return out
}

// implements reports whether a method set, given as name → sigKey, has
// every method of it.
func implements(sigs map[string]string, it *types.Interface) bool {
	for m := range it.Methods() {
		if s, ok := sigs[m.Name()]; !ok || s != sigKey(m.Type().(*types.Signature)) {
			return false
		}
	}
	return true
}

// sigKey spells a signature without its receiver and parameter names, with
// full package paths, so that signatures type-checked in different
// packages compare equal.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	tuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for v := range t.Variables() {
			b.WriteString(types.TypeString(v.Type(), nil))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	tuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	tuple(sig.Results())
	return b.String()
}
