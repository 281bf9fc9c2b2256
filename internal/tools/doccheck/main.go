// Command doccheck enforces godoc completeness: every exported identifier
// in the packages under the given directories must carry a doc comment.
// The CI lint job runs it over slimnoc/ and internal/ (alongside detlint
// and linkcheck) so the public facade and the implementation layers stay
// navigable from `go doc` alone.
//
// When the directories include the facade package (slimnoc), doccheck also
// keeps its surface to what callers use: each top-level exported name must
// be named by a non-test file outside the package, or carry a line starting
// "keep:" with the reason in its doc comment. It runs from the module root,
// whose go.mod names the import path.
//
// Usage:
//
//	doccheck [dir ...]   (default: slimnoc internal)
//
// The exit code is the number of findings (capped at 1), and each one is
// reported as file:line: <kind> <name>, or file:line: unused <kind> <name>
// for a facade name nothing uses. Struct fields and interface methods are
// exempt — the type's comment is the documentation unit — as are generated
// files, test files, and main packages' main().
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// facadeDir is the public facade package whose exported names must each
// have a caller.
const facadeDir = "slimnoc"

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"slimnoc", "internal"}
	}
	var missing []string
	for _, dir := range dirs {
		err := walkGo(dir, func(path string) error {
			m, err := checkFile(path)
			missing = append(missing, m...)
			return err
		})
		if err == nil && filepath.Clean(dir) == facadeDir {
			var unused []string
			unused, err = unusedNames(".", facadeDir)
			missing = append(missing, unused...)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		fmt.Println(m)
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented or unused exported identifier(s)\n", len(missing))
		os.Exit(1)
	}
}

// checkFile reports the undocumented exported identifiers of one file.
func checkFile(path string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s %s", p.Filename, p.Line, kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || (f.Name.Name == "main" && d.Name.Name == "main") {
				continue
			}
			// Methods on unexported receivers are not godoc-visible.
			if d.Recv != nil && !exportedRecv(d.Recv) {
				continue
			}
			if d.Doc == nil {
				report(d.Pos(), "func", d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						// A comment on the grouped decl, the spec line, or a
						// trailing line comment all count.
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(n.Pos(), kindOf(d.Tok), n.Name)
						}
					}
				}
			}
		}
	}
	return out, nil
}

// exportedRecv reports whether a method receiver names an exported type.
func exportedRecv(fl *ast.FieldList) bool {
	if len(fl.List) == 0 {
		return false
	}
	t := fl.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
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

// walkGo calls fn for each non-test Go file under dir, skipping testdata
// and hidden directories.
func walkGo(dir string, fn func(path string) error) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != dir && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		return fn(path)
	})
}

// topName is one top-level exported declaration of the facade package.
type topName struct {
	pos  token.Position
	kind string
	keep bool
}

// unusedNames reports the top-level exported names of the package in
// root/pkgDir that no non-test file of the module outside that package
// references and whose doc comment has no "keep:" line.
func unusedNames(root, pkgDir string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modLine := strings.Fields(string(mod)) // go.mod opens with "module <path>"
	if len(modLine) < 2 || modLine[0] != "module" {
		return nil, fmt.Errorf("%s/go.mod: no module line first", root)
	}
	importPath := modLine[1] + "/" + filepath.ToSlash(pkgDir)

	fset := token.NewFileSet()
	names := map[string]topName{}
	used := map[string]bool{}
	add := func(id *ast.Ident, kind string, doc *ast.CommentGroup) {
		if id.IsExported() {
			names[id.Name] = topName{fset.Position(id.Pos()), kind, hasKeep(doc)}
		}
	}
	err = walkGo(root, func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if filepath.Dir(path) != filepath.Join(root, pkgDir) {
			references(f, importPath, used)
			return nil
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, "func", d.Doc)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, "type", docOf(s.Doc, d.Doc))
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, kindOf(d.Tok), docOf(s.Doc, d.Doc))
						}
					}
				}
			}
		}
		return nil
	})
	var out []string
	for n, tn := range names { //detlint:ordered out is sorted before it is returned
		if !used[n] && !tn.keep {
			out = append(out, fmt.Sprintf("%s:%d: unused %s %s", tn.pos.Filename, tn.pos.Line, tn.kind, n))
		}
	}
	sort.Strings(out)
	return out, err
}

// references records the names a file selects from the package imported
// as importPath.
func references(f *ast.File, importPath string, used map[string]bool) {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != importPath {
			continue
		}
		local := filepath.Base(importPath)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
}

// docOf returns a spec's own doc comment, or its declaration's.
func docOf(spec, decl *ast.CommentGroup) *ast.CommentGroup {
	if spec != nil {
		return spec
	}
	return decl
}

// hasKeep reports whether a doc comment has a line starting "keep:".
func hasKeep(doc *ast.CommentGroup) bool {
	return doc != nil && slices.ContainsFunc(strings.Split(doc.Text(), "\n"), func(line string) bool {
		return strings.HasPrefix(line, "keep:")
	})
}
