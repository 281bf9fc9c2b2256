package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestTableApplies keeps the table in step with the code it mutates without
// running it: every entry's find string occurs exactly once in its file,
// the replacement changes something, the package exists and the test
// selector compiles. A refactor that moves a guarded line fails here, in
// the ordinary test run, rather than in the gate.
func TestTableApplies(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	names := map[string]bool{}
	for _, m := range table {
		if names[m.name] {
			t.Errorf("%s: duplicate entry name", m.name)
		}
		names[m.name] = true
		src, err := os.ReadFile(filepath.Join(root, m.file))
		if err != nil {
			t.Errorf("%s: %v", m.name, err)
			continue
		}
		if _, err := apply(string(src), m.find, m.replace); err != nil {
			t.Errorf("%s: %s: %v", m.name, m.file, err)
		}
		if m.find == m.replace || m.why == "" {
			t.Errorf("%s: a mutation needs a change and a reason", m.name)
		}
		if fi, err := os.Stat(filepath.Join(root, m.pkg)); err != nil || !fi.IsDir() {
			t.Errorf("%s: package %s: %v", m.name, m.pkg, err)
		}
		if _, err := regexp.Compile(m.run); err != nil {
			t.Errorf("%s: -run %q: %v", m.name, m.run, err)
		}
	}
}

func TestApply(t *testing.T) {
	if got, err := apply("a b c", "b", "x"); err != nil || got != "a x c" {
		t.Errorf("apply = %q, %v", got, err)
	}
	if _, err := apply("a b b", "b", "x"); err == nil {
		t.Error("an ambiguous find string applied")
	}
	if _, err := apply("a b c", "z", "x"); err == nil {
		t.Error("a missing find string applied")
	}
}
