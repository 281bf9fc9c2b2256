package detlint

// Golden-diagnostic tests in the style of x/tools' analysistest: each
// analyzer runs over a fixture package under testdata/src, and every
// expected finding is declared in place with a `// want "regex"` comment
// on the offending line. The harness fails on any missing, unexpected or
// mismatched diagnostic, so the fixtures double as the analyzers'
// behavioral spec — including the waiver and annotation-propagation
// cases.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// stdExportPkgs are the std packages the fixtures import; export data for
// them (and their dependencies) comes from one `go list -deps -export`.
var stdExportPkgs = []string{"sort", "slices", "fmt", "math/rand", "time"}

var (
	stdOnce sync.Once
	stdExp  map[string]string
	stdErr  error
)

func stdExports(t *testing.T) map[string]string {
	t.Helper()
	stdOnce.Do(func() {
		args := append([]string{"list", "-deps", "-export", "-json"}, stdExportPkgs...)
		var stdout, stderr bytes.Buffer
		cmd := exec.Command("go", args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			stdErr = fmt.Errorf("go list std exports: %v\n%s", err, stderr.String())
			return
		}
		stdExp = make(map[string]string)
		dec := json.NewDecoder(&stdout)
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				stdErr = err
				return
			}
			if p.Export != "" {
				stdExp[p.ImportPath] = p.Export
			}
		}
	})
	if stdErr != nil {
		t.Fatal(stdErr)
	}
	return stdExp
}

// tdLoader loads fixture packages from testdata/src, resolving std imports
// through gc export data and fixture-to-fixture imports recursively from
// source. It implements types.Importer.
type tdLoader struct {
	t    *testing.T
	fset *token.FileSet
	root string
	std  map[string]string
	gc   types.Importer
	pkgs map[string]*Package
}

func newLoader(t *testing.T) *tdLoader {
	t.Helper()
	std := stdExports(t)
	fset := token.NewFileSet()
	l := &tdLoader{
		t:    t,
		fset: fset,
		root: filepath.Join("testdata", "src"),
		std:  std,
		pkgs: make(map[string]*Package),
	}
	l.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := std[path]
		if !ok {
			return nil, fmt.Errorf("no std export data for %q", path)
		}
		return os.Open(file)
	})
	return l
}

func (l *tdLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.std[path]; ok {
		return l.gc.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

func (l *tdLoader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture sources in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck fixture %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// wantRe extracts the quoted regexes of a `// want "a" "b"` comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectations collects file-base:line -> expected-message regexes from
// the fixtures' // want comments.
func expectations(t *testing.T, pkgs []*Package) map[string][]string {
	t.Helper()
	want := make(map[string][]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// Both comment forms carry expectations; the block
					// form lets a want share a line with a line-comment
					// directive under test.
					text := strings.TrimPrefix(c.Text, "//")
					if strings.HasPrefix(text, "/*") {
						text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
					}
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
					for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
						want[key] = append(want[key], m[1])
					}
				}
			}
		}
	}
	return want
}

func runGolden(t *testing.T, a *Analyzer, cfg *Config, paths ...string) {
	t.Helper()
	l := newLoader(t)
	var pkgs []*Package
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	diags, err := Run(cfg, pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]string)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		got[key] = append(got[key], d.Message)
	}
	want := expectations(t, pkgs)

	keys := make(map[string]bool)
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		w, g := want[k], got[k]
		if len(w) != len(g) {
			t.Errorf("%s: want %d diagnostic(s) %q, got %d %q", k, len(w), w, len(g), g)
			continue
		}
		for i := range w {
			re, err := regexp.Compile(w[i])
			if err != nil {
				t.Fatalf("%s: bad want regex %q: %v", k, w[i], err)
			}
			if !re.MatchString(g[i]) {
				t.Errorf("%s: diagnostic %q does not match want %q", k, g[i], w[i])
			}
		}
	}
}

func TestMapOrderGolden(t *testing.T) {
	runGolden(t, MapOrder, &Config{}, "maporder")
}

func TestRNGSourceGolden(t *testing.T) {
	runGolden(t, RNGSource, &Config{}, "rngsource")
}

func TestHotAllocGolden(t *testing.T) {
	runGolden(t, HotAlloc, &Config{}, "hotalloc")
}

func TestSharedReadGolden(t *testing.T) {
	cfg := &Config{
		SharedTypes:   []string{"sharedread/netpkg.Network"},
		SharedWriters: []string{"sharedread/netpkg"},
		LabelFields:   []string{"Name"},
	}
	runGolden(t, SharedRead, cfg, "sharedread/netpkg", "sharedread/use")
}

func TestDomainSharedGolden(t *testing.T) {
	cfg := &Config{
		DomainSharedFields: []string{
			"sharedread/dompkg.link.pending",
			"sharedread/dompkg.link.inFly",
			"sharedread/dompkg.engine.count",
			"sharedread/dompkg.engine.out",
		},
	}
	runGolden(t, SharedRead, cfg, "sharedread/dompkg")
}

func TestFloatKeyGolden(t *testing.T) {
	runGolden(t, FloatKey, &Config{}, "floatkey")
}

func TestHotCoverGolden(t *testing.T) {
	cfg := &Config{HotPackages: []string{"hotcover/hot", "hotcover/empty"}}
	runGolden(t, HotCover, cfg, "hotcover/hot", "hotcover/empty")
}

func TestParseWaiver(t *testing.T) {
	cases := []struct {
		text     string
		ok       bool
		analyzer string
	}{
		{"//detlint:ordered commutative sum", true, "maporder"},
		{"//detlint:ordered", false, ""},
		{"//detlint:ordered   ", false, ""},
		{"//detlint:allow hotalloc freelist miss only", true, "hotalloc"},
		{"//detlint:allow hotalloc", false, ""},
		{"//detlint:allow", false, ""},
		{"// regular comment", false, ""},
		{"//sim:hot", false, ""},
	}
	for _, c := range cases {
		w, ok := parseWaiver(c.text)
		if ok != c.ok || (ok && w.analyzer != c.analyzer) {
			t.Errorf("parseWaiver(%q) = (%+v, %v), want ok=%v analyzer=%q", c.text, w, ok, c.ok, c.analyzer)
		}
	}
}

func TestAnalyzerByName(t *testing.T) {
	for _, a := range Analyzers() {
		if AnalyzerByName(a.Name) != a {
			t.Errorf("AnalyzerByName(%q) did not return the suite analyzer", a.Name)
		}
	}
	if AnalyzerByName("nosuch") != nil {
		t.Error("AnalyzerByName of unknown name should be nil")
	}
}

// TestSuiteCleanOnTree is the acceptance check the CI lint job enforces:
// the full suite runs clean over the repository's determinism-critical
// packages, and the //sim:hot annotation set is non-empty.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole tree; skipped in -short")
	}
	pkgs, err := Load("../..", []string{"./internal/...", "./slimnoc/...", "./cmd/..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(DefaultConfig(), pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
	hot := 0
	for _, p := range pkgs {
		hot += HotFunctionCount(p)
	}
	if hot == 0 {
		t.Error("no //sim:hot functions found anywhere; the engine annotation set is missing")
	}
}
