// Package detlint is the repository's determinism static-analysis suite.
// The load-bearing properties of the reproduction — golden byte-identity of
// sim Results, parallel==serial campaign bytes, PointKey/store stability —
// are enforced dynamically by tests. detlint checks at the source level
// what a test run cannot see: a map range, a wall-clock read, a write to
// shared state or a float key on a path the tests do not take.
//
// The suite is modelled on golang.org/x/tools/go/analysis but built on the
// standard library alone (the module is dependency-free by design): an
// Analyzer inspects one type-checked package through a Pass and reports
// position-anchored Diagnostics. Four analyzers ship:
//
//   - maporder:   no `range` over a map in determinism-critical code unless
//     the keys are collected and sorted (the sorted-keys idiom) or the site
//     carries a `//detlint:ordered <reason>` waiver.
//   - rngsource:  all randomness flows from an explicitly seeded generator
//     (the DeriveSeed discipline: the engine's *rng.Stream, or a *rand.Rand);
//     global math/rand draws and wall-clock reads (time.Now and friends)
//     are forbidden.
//   - sharedread: the read-only WithNetwork/WithRouteTable/Estimator
//     sharing contracts — writes to network or route-table state outside
//     their constructor packages are flagged.
//   - floatkey:   no floating-point map keys, and no `==`/`!=` on
//     float-bearing structs, anywhere near canonical encoding or PointKey
//     derivation (floats make key identity platform- and history-dependent).
//
// Any diagnostic can be waived at its line (or the line below a standalone
// comment) with `//detlint:allow <analyzer> <reason>`; maporder accepts the
// shorthand `//detlint:ordered <reason>`. A waiver without a reason does
// not waive — the contract is that every exception is explained in place.
//
// The suite runs in CI via the internal/tools/detlint command and is tested
// by golden-diagnostic packages under testdata (// want comments), in the
// style of x/tools' analysistest.
package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and waiver comments.
	Name string
	// Run inspects pass.Pkg and reports findings via pass.reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	// Pos locates the finding (file:line:column).
	Pos token.Position
	// Analyzer names the check that produced the finding.
	Analyzer string
	// Message states the contract violation.
	Message string
}

// String renders the diagnostic in the go vet file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package plus the report sink.
type Pass struct {
	// Analyzer is the check currently running.
	Analyzer *Analyzer
	// Pkg is the loaded, type-checked package under analysis.
	Pkg *Package
	// Cfg is the suite configuration (the shared types and their writers).
	Cfg *Config

	diags *[]Diagnostic
}

// reportf records a finding at pos unless an effective waiver covers the
// position's line. A waiver is effective only when it names this analyzer
// (or is the //detlint:ordered shorthand for maporder) and carries a
// non-empty reason.
func (p *Pass) reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.waived(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Config parameterises the suite: which types are shared read-only and who
// may write them.
type Config struct {
	// SharedTypes lists "pkgpath.TypeName" named types whose state is
	// shared read-only after construction (sharedread).
	SharedTypes []string
	// SharedWriters lists package paths allowed to write SharedTypes
	// fields — the constructor packages.
	SharedWriters []string
	// LabelFields lists field names exempt from sharedread: pure labels
	// (display names) that carry no structural or routed state.
	LabelFields []string
}

// DefaultConfig returns the repository configuration: topo networks and
// compiled routing state are the shared read-only types, and their
// declaring packages (plus internal/core, which assembles Slim NoC
// networks) the writers.
func DefaultConfig() *Config {
	return &Config{
		SharedTypes: []string{
			"repro/internal/topo.Network",
			"repro/internal/routing.RouteTable",
		},
		SharedWriters: []string{
			"repro/internal/topo",
			"repro/internal/routing",
			"repro/internal/core",
		},
		LabelFields: []string{"Name"},
	}
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{mapOrder, rngSource, sharedRead, floatKey}
}

// Run executes the analyzers over the packages and returns every finding,
// sorted by file, line, column and analyzer name.
func Run(cfg *Config, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Cfg: cfg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("detlint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// waiverPrefix introduces the generic waiver directive; orderedDirective is
// the maporder shorthand from the issue-tracker contract.
const (
	waiverPrefix     = "//detlint:allow"
	orderedDirective = "//detlint:ordered"
)

// waiver is one parsed //detlint: directive.
type waiver struct {
	analyzer string
	reason   string
}

// waivers builds (once) the file/line index of waiver directives. A
// directive waives findings on its own line; a standalone comment line also
// waives the line directly below it.
func (p *Package) waivers() map[string]map[int][]waiver {
	if p.waiverIdx != nil {
		return p.waiverIdx
	}
	idx := make(map[string]map[int][]waiver)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				w, ok := parseWaiver(c.Text)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]waiver)
					idx[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], w)
			}
		}
	}
	p.waiverIdx = idx
	return idx
}

// parseWaiver decodes one comment as a waiver directive. A directive with
// an empty reason parses as invalid (ok=false): unexplained waivers do not
// waive.
func parseWaiver(text string) (waiver, bool) {
	switch {
	case strings.HasPrefix(text, orderedDirective):
		reason := strings.TrimSpace(strings.TrimPrefix(text, orderedDirective))
		if reason == "" {
			return waiver{}, false
		}
		return waiver{analyzer: "maporder", reason: reason}, true
	case strings.HasPrefix(text, waiverPrefix):
		rest := strings.TrimSpace(strings.TrimPrefix(text, waiverPrefix))
		name, reason, _ := strings.Cut(rest, " ")
		reason = strings.TrimSpace(reason)
		if name == "" || reason == "" {
			return waiver{}, false
		}
		return waiver{analyzer: name, reason: reason}, true
	}
	return waiver{}, false
}

// waived reports whether an effective directive covers (analyzer, line):
// one on the line itself, or one on the line above (a standalone waiver
// comment preceding the statement).
func (p *Package) waived(analyzer string, pos token.Position) bool {
	byLine := p.waivers()[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, w := range byLine[line] {
			if w.analyzer == analyzer {
				return true
			}
		}
	}
	return false
}

// qualifiedName renders a named type as "pkgpath.TypeName" for matching
// against Config.SharedTypes.
func qualifiedName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// derefNamed unwraps pointers and aliases down to a named type, or nil.
func derefNamed(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Alias:
			t = types.Unalias(x)
		case *types.Named:
			return x
		default:
			return nil
		}
	}
}

// pkgNameOf resolves a call's receiver expression to an imported package
// path, or "" when the expression is not a package qualifier.
func pkgNameOf(info *types.Info, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}
