package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestUnusedNames builds a small module and checks which facade names the
// guard reports: a name stays when a non-test file outside the package
// names it, through any import name and from a subpackage too, or when its
// doc comment has a keep: line; a reference from a test file or from the
// package itself does not count, and methods are not checked.
func TestUnusedNames(t *testing.T) {
	root := t.TempDir()
	api := `package pkg

// Used is called from cmd.
func Used() Result { return Result{} }

// Result is only returned by Used.
type Result struct{}

// Method is a method, never called.
func (Result) Method() {}

// Internal is only called inside the package.
func Internal() { Used() }

// TestOnly is only called from a test file.
func TestOnly() {}

// Kept is called from nowhere.
//
// keep: a stated reason.
func Kept() {}

const (
	// Sub is read from a subpackage of pkg.
	Sub = 1
	// Grouped is read from nowhere.
	Grouped = 2
)

// Aliased is read through a renamed import.
var Aliased = 2

func unexported() {}
`
	for name, src := range map[string]string{
		"go.mod":           "module m\n\ngo 1.24\n",
		"pkg/api.go":       api,
		"pkg/sub/sub.go":   "package sub\n\nimport \"m/pkg\"\n\nvar _ = pkg.Sub\n",
		"cmd/main.go":      "package main\n\nimport \"m/pkg\"\n\nfunc main() { pkg.Used() }\n",
		"cmd/alias.go":     "package main\n\nimport p \"m/pkg\"\n\nvar _ = p.Aliased\n",
		"cmd/main_test.go": "package main\n\nimport \"m/pkg\"\n\nvar _ = pkg.TestOnly\n",
		"other/other.go":   "package other\n\nimport \"m/elsewhere/pkg\"\n\nvar _ = pkg.Internal\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := unusedNames(root, "pkg")
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(root, "pkg", "api.go")
	want := []string{
		file + ":13: unused func Internal",
		file + ":16: unused func TestOnly",
		file + ":27: unused const Grouped",
		file + ":7: unused type Result",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unused = %q, want %q", got, want)
	}
}
