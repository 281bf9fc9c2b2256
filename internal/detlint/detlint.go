// Package detlint is the repository's determinism and zero-allocation
// static-analysis suite. Every load-bearing property of the reproduction —
// golden byte-identity of sim Results, parallel==serial campaign bytes,
// PointKey/store stability, the zero-allocation steady-state cycle loop —
// is otherwise enforced only dynamically, by tests that catch a violation
// after it ships as a flaky diff or a silent performance cliff. detlint
// machine-checks those contracts at the source level, before a run ever
// happens.
//
// The suite is modelled on golang.org/x/tools/go/analysis but built on the
// standard library alone (the module is dependency-free by design): an
// Analyzer inspects one type-checked package through a Pass and reports
// position-anchored Diagnostics. Six analyzers ship:
//
//   - maporder:   no `range` over a map in determinism-critical code unless
//     the keys are collected and sorted (the sorted-keys idiom) or the site
//     carries a `//detlint:ordered <reason>` waiver.
//   - rngsource:  all randomness flows from an explicitly seeded generator
//     (the DeriveSeed discipline: the engine's *rng.Stream, or a *rand.Rand);
//     global math/rand draws and wall-clock reads (time.Now and friends)
//     are forbidden.
//   - hotalloc:   functions annotated `//sim:hot` (the engine cycle-loop
//     call graph) must not contain allocation-causing constructs, turning
//     the aggregate AllocsPerRun==0 tests into line-precise diagnostics.
//   - sharedread: the read-only WithNetwork/WithRouteTable/Estimator
//     sharing contracts — writes to network or route-table state outside
//     their constructor packages are flagged. A second mode guards the
//     domain-parallel engine: inside functions annotated `//sim:domain`
//     (code that runs concurrently across router domains each cycle),
//     writes to the configured cross-domain shared fields
//     (Config.DomainSharedFields — link handshake state, the timing
//     wheels, the Sim counters) are flagged — assignments, and calls of
//     pointer-receiver methods on them — unless waived in place with
//     the reason the write is race-free (sender-/receiver-exclusive
//     sides of a directed link, or effects staged per domain and merged
//     serially).
//   - floatkey:   no floating-point map keys, and no `==`/`!=` on
//     float-bearing structs, anywhere near canonical encoding or PointKey
//     derivation (floats make key identity platform- and history-dependent).
//   - hotcover:   the self-check that the `//sim:hot` annotation set is
//     non-empty in the engine packages and every `//sim:hot` or
//     `//sim:domain` annotation sits on a function declaration (a
//     misplaced directive silently guards nothing).
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
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
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
	// Cfg is the suite configuration (shared-type lists, hot packages...).
	Cfg *Config

	diags *[]Diagnostic
}

// Reportf records a finding at pos unless an effective waiver covers the
// position's line. A waiver is effective only when it names this analyzer
// (or is the //detlint:ordered shorthand for maporder) and carries a
// non-empty reason.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
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
// may write them, which packages must carry hot annotations, and which
// package-path prefixes are out of scope entirely.
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
	// DomainSharedFields lists "pkgpath.TypeName.Field" fields that are
	// shared across router domains during the engine's parallel phases.
	// sharedread flags writes to them inside //sim:domain functions —
	// assignments, and calls of pointer-receiver methods; each
	// legitimate write site carries a waiver explaining why it is race-free
	// (exclusive link side, or staged-and-merged effect).
	DomainSharedFields []string
	// HotPackages lists package paths that must declare at least one
	// //sim:hot function (hotcover): the engine cycle loop lives there.
	HotPackages []string
	// Skip lists package-path prefixes excluded from every analyzer.
	Skip []string
}

// DefaultConfig returns the repository configuration: topo networks and
// compiled routing state are the shared read-only types, their declaring
// packages (plus internal/core, which assembles Slim NoC networks) the
// writers, and internal/sim, internal/traffic, internal/routing and
// internal/rng (the engine's draw path) the packages required to carry the
// hot-path annotation set.
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
		// The cross-domain surface of the parallel engine: link handshake
		// and occupancy state (written by exactly one side per phase), the
		// input-stage readiness mirrors filled at link delivery, the
		// shared timing wheels, the Sim-level counters (updated only
		// through per-domain staging merged serially), the arrival wheels
		// (scheduled by the sending domain, taken by the receiving one)
		// and the stalled-lane lists of the link phase.
		DomainSharedFields: []string{
			"repro/internal/sim.link.pending",
			"repro/internal/sim.link.occupancy",
			"repro/internal/sim.Sim.occIn",
			"repro/internal/sim.wheel.buckets",
			"repro/internal/sim.wheel.pending",
			"repro/internal/sim.wheel.peak",
			"repro/internal/sim.Sim.forwardedFlits",
			"repro/internal/sim.Sim.bypassFlits",
			"repro/internal/sim.Sim.bufferedFlits",
			"repro/internal/sim.domain.out",
			"repro/internal/sim.domain.stalled",
		},
		HotPackages: []string{"repro/internal/sim", "repro/internal/traffic", "repro/internal/routing", "repro/internal/rng"},
	}
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		RNGSource,
		HotAlloc,
		SharedRead,
		FloatKey,
		HotCover,
	}
}

// AnalyzerByName returns the suite analyzer with the given name, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the analyzers over the packages and returns every finding,
// sorted by file, line, column and analyzer name. Packages whose import
// path starts with a cfg.Skip prefix are not analyzed.
func Run(cfg *Config, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if skipped(cfg, pkg.Path) {
			continue
		}
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

func skipped(cfg *Config, path string) bool {
	for _, pre := range cfg.Skip {
		if path == pre || strings.HasPrefix(path, pre+"/") {
			return true
		}
	}
	return false
}

// HotAnnotation is the directive that marks a function as part of the
// engine's steady-state cycle loop, placing it under hotalloc's
// zero-allocation rules. It must appear as its own line inside the
// function's doc comment.
const HotAnnotation = "//sim:hot"

// DomainAnnotation marks a function as running concurrently across router
// domains during the engine's parallel phases, placing its writes under
// sharedread's cross-domain rules (Config.DomainSharedFields). Same
// placement contract as HotAnnotation: a line of the function's doc
// comment.
const DomainAnnotation = "//sim:domain"

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

// funcDocHas reports whether a function declaration carries the annotation
// as a line of its doc comment.
func funcDocHas(d *ast.FuncDecl, annotation string) bool {
	if d.Doc == nil {
		return false
	}
	for _, c := range d.Doc.List {
		if strings.TrimSpace(c.Text) == annotation {
			return true
		}
	}
	return false
}

// funcDocHot reports whether a function declaration carries the //sim:hot
// annotation as a line of its doc comment.
func funcDocHot(d *ast.FuncDecl) bool { return funcDocHas(d, HotAnnotation) }

// hotFuncs returns the package's annotated functions (by type object) and
// all declared functions, so callers can distinguish "declared here but not
// hot" from "declared elsewhere".
func hotFuncs(pkg *Package) (hot map[*types.Func]bool, declared map[*types.Func]*ast.FuncDecl) {
	hot = make(map[*types.Func]bool)
	declared = make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			declared[obj] = fd
			if funcDocHot(fd) {
				hot[obj] = true
			}
		}
	}
	return hot, declared
}
