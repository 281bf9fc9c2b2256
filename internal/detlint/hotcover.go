package detlint

import (
	"go/ast"
	"strings"
)

// hotCover is the suite's self-check: hotalloc only guards what `//sim:hot`
// covers and sharedread's cross-domain mode only guards what `//sim:domain`
// covers, so an empty or misplaced annotation set silently turns those
// analyzers off. hotCover fails when a configured hot package (the engine
// cycle-loop packages) declares no annotated function, and flags any
// `//sim:hot` or `//sim:domain` comment that is not attached to a function
// declaration's doc block — a directive floating above a blank line or
// inside a body guards nothing.
var hotCover = &Analyzer{
	Name: "hotcover",
	Doc:  "the //sim:hot annotation set must be non-empty in engine packages, and //sim:hot///sim:domain directives attached to function declarations",
	Run:  runHotCover,
}

func runHotCover(pass *Pass) error {
	hot, declared := hotFuncs(pass.Pkg)

	// Comments legitimately carrying the directive: lines of a FuncDecl
	// doc block.
	attached := make(map[*ast.Comment]bool)
	//detlint:ordered builds a membership set; no output depends on visit order
	for _, fd := range declared {
		if fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			attached[c] = true
		}
	}
	for _, file := range pass.Pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if (text == hotAnnotation || text == domainAnnotation) && !attached[c] {
					pass.reportf(c.Pos(), "misplaced %s: the directive only takes effect as a line of a function declaration's doc comment", text)
				}
			}
		}
	}

	for _, p := range pass.Cfg.HotPackages {
		if pass.Pkg.Path != p {
			continue
		}
		if len(hot) == 0 {
			pass.reportf(pass.Pkg.Files[0].Package, "package %s is configured as a hot package but declares no %s functions; the engine cycle loop must carry the annotation set", pass.Pkg.Path, hotAnnotation)
		}
	}
	return nil
}

// HotFunctionCount returns how many functions in pkg carry the //sim:hot
// annotation (the CLI reports this so CI shows the guarded surface).
func HotFunctionCount(pkg *Package) int {
	hot, _ := hotFuncs(pkg)
	return len(hot)
}
