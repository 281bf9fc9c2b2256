package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestUnusedNames builds a small module and checks which names the rules
// report. A name stays when a non-test file outside its package references
// it (through any import name, from a subpackage too), when a used
// signature or a used type's exported field names it, when it is a method
// that implements an interface the module declares or imports (a module
// interface, fmt.Stringer) on a type that is used or that non-test code
// builds, or when its doc comment has a keep: line. A reference from a
// test file or from the package itself does not count, so a type that only
// a test builds is reported with its interface methods; main packages are
// not checked.
func TestUnusedNames(t *testing.T) {
	api := `package pkg

// Used is called from cmd.
func Used() Result { return Result{} }

// Result is only returned by Used.
type Result struct {
	// Field names Inner.
	Field  Inner
	hidden Hidden
}

// Inner is named only by the exported field of Result.
type Inner struct{}

// Hidden is named only by an unexported field.
type Hidden struct{}

// Method is an exported method nothing calls.
func (Result) Method() {}

// String implements fmt.Stringer.
func (Result) String() string { return "result" }

// Kept has no caller.
//
// keep: a stated reason.
func (Result) Kept() {}

// Shape is the interface NewShape returns.
type Shape interface{ Area() int }

// NewShape is called from cmd.
func NewShape() Shape { return Square{} }

// Square is reached only through Shape.
type Square struct{}

// Area implements Shape.
func (Square) Area() int { return 1 }

// Internal is only called inside the package.
func Internal() { Used() }

// TestOnly is only called from a test file.
func TestOnly() {}

func Undocumented() {}

// KeptFunc is called from nowhere.
//
// keep: a stated reason.
func KeptFunc() {}

const (
	// Sub is read from a subpackage of pkg.
	Sub = 1
	// Grouped is read from nowhere.
	Grouped = 2
)

// Aliased is read through a renamed import.
var Aliased = 2

func unexported() {}

// Fake implements Shape, and only a test builds it.
type Fake struct{}

// Area implements Shape.
func (Fake) Area() int { return 2 }
`
	main := `package main

import (
	"fmt"

	"m/pkg"
)

func main() { fmt.Println(pkg.Used(), pkg.NewShape(), pkg.Undocumented) }

func Exported() {}
`
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":           "module m\n\ngo 1.24\n",
		"pkg/api.go":       api,
		"pkg/sub/sub.go":   "package sub\n\nimport \"m/pkg\"\n\nvar _ = pkg.Sub\n",
		"cmd/main.go":      main,
		"cmd/alias.go":     "package main\n\nimport p \"m/pkg\"\n\nvar _ = p.Aliased\n",
		"cmd/main_test.go": "package main\n\nimport \"m/pkg\"\n\nvar _ = pkg.TestOnly\n\nvar _ pkg.Shape = pkg.Fake{}\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join("pkg", "api.go")
	want := []string{
		file + ":17: unused type Hidden",
		file + ":20: unused method Result.Method",
		file + ":43: unused func Internal",
		file + ":46: unused func TestOnly",
		file + ":48: func Undocumented",
		file + ":59: unused const Grouped",
		file + ":68: unused type Fake",
		file + ":71: unused method Fake.Area",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings = %q, want %q", got, want)
	}
}
