// Command mutcheck is the mutation gate: every invariant test proves it can
// fail. Each entry of its table (table.go) names one fault — a find string
// in one source file and its replacement — and the tests that must catch
// it. For each entry mutcheck writes the mutated file to a temporary
// directory, builds the package's test binary against it with `go test -c
// -overlay`, runs the named tests, and requires them to fail. A mutant the
// tests let through fails the gate. So does a table error: a find string
// that is missing or occurs more than once, a mutant that does not compile
// (a build error is not a kill), or named tests that do not pass, or match
// nothing, on the unmutated source.
//
// Usage, from the module root:
//
//	mutcheck              # every entry
//	mutcheck -run 'cbin'  # entries whose name matches the regexp
//	mutcheck -v           # also print how each mutant was killed
//
// Each entry's line reports its verdict and time. Exit code 1 on any
// surviving mutant or table error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"
)

// mutation is one table entry.
type mutation struct {
	name    string // short identifier, matched by -run
	file    string // source file, relative to the module root
	find    string // must occur exactly once in file
	replace string
	pkg     string // package directory, relative to the module root
	run     string // go test -run regexp selecting the tests that must fail
	why     string // the invariant the tests are meant to guard
}

func main() {
	filter := flag.String("run", "", "check only the entries whose name matches this regexp")
	verbose := flag.Bool("v", false, "print the end of each killing test log")
	flag.Parse()
	re, err := regexp.Compile(*filter)
	if err != nil {
		fatalf("mutcheck: -run: %v", err)
	}
	root, err := os.Getwd()
	if err != nil {
		fatalf("mutcheck: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fatalf("mutcheck: run from the module root: %v", err)
	}
	tmp, err := os.MkdirTemp("", "mutcheck-")
	if err != nil {
		fatalf("mutcheck: %v", err)
	}
	defer os.RemoveAll(tmp)
	c := &checker{root: root, tmp: tmp, verbose: *verbose, baseline: map[string]error{}}
	bad := 0
	for _, m := range table {
		if !re.MatchString(m.name) {
			continue
		}
		//detlint:allow rngsource wall-clock cost of a gate entry, printed only
		start := time.Now()
		err := c.check(m)
		verdict := "killed"
		if err != nil {
			verdict = "FAIL: " + err.Error()
			bad++
		}
		//detlint:allow rngsource wall-clock cost of a gate entry, printed only
		fmt.Printf("%-20s %6.1fs  %s\n", m.name, time.Since(start).Seconds(), verdict)
	}
	if bad > 0 {
		fmt.Printf("mutcheck: %d entr(y/ies) failed\n", bad)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// checker runs entries; baseline caches the unmutated verdict per
// (package, tests) pair.
type checker struct {
	root     string
	tmp      string
	verbose  bool
	baseline map[string]error
	n        int
}

// check returns nil when the entry's tests kill its mutant, and the reason
// otherwise.
func (c *checker) check(m mutation) error {
	src, err := os.ReadFile(filepath.Join(c.root, m.file))
	if err != nil {
		return err
	}
	mutant, err := apply(string(src), m.find, m.replace)
	if err != nil {
		return fmt.Errorf("%s: %v", m.file, err)
	}
	key := m.pkg + "\x00" + m.run
	if _, ok := c.baseline[key]; !ok {
		c.baseline[key] = c.baselinePasses(m)
	}
	if err := c.baseline[key]; err != nil {
		return err
	}
	c.n++
	dir := filepath.Join(c.tmp, fmt.Sprint(c.n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mutPath := filepath.Join(dir, filepath.Base(m.file))
	if err := os.WriteFile(mutPath, []byte(mutant), 0o644); err != nil {
		return err
	}
	overlay, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(c.root, m.file): mutPath},
	})
	if err != nil {
		return err
	}
	overlayPath := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
		return err
	}
	bin := filepath.Join(dir, "mutant.test")
	if out, err := c.build(m.pkg, bin, "-overlay="+overlayPath); err != nil {
		return fmt.Errorf("mutant does not build (a table error, not a kill): %v\n%s", err, out)
	}
	out, err := c.runTests(m, bin)
	if err == nil {
		return fmt.Errorf("mutant survived: %s -run %q passes with it\n%s", m.pkg, m.run, head(out))
	}
	if c.verbose {
		fmt.Println(head(out))
	}
	return nil
}

// apply replaces the one occurrence of find in src.
func apply(src, find, replace string) (string, error) {
	switch n := strings.Count(src, find); {
	case find == "" || n == 0:
		return "", fmt.Errorf("find string %q not found", find)
	case n > 1:
		return "", fmt.Errorf("find string %q occurs %d times", find, n)
	}
	return strings.Replace(src, find, replace, 1), nil
}

// baselinePasses requires the entry's tests to exist and pass on the
// unmutated source: a test that fails anyway kills every mutant.
func (c *checker) baselinePasses(m mutation) error {
	c.n++
	bin := filepath.Join(c.tmp, fmt.Sprint(c.n), "baseline.test")
	if out, err := c.build(m.pkg, bin); err != nil {
		return fmt.Errorf("%s tests do not build: %v\n%s", m.pkg, err, out)
	}
	out, err := c.runTests(m, bin)
	if err != nil {
		return fmt.Errorf("%s -run %q fails without any mutation: %v\n%s", m.pkg, m.run, err, head(out))
	}
	if bytes.Contains(out, []byte("no tests to run")) {
		return fmt.Errorf("%s -run %q matches no test", m.pkg, m.run)
	}
	return nil
}

// build compiles the package's test binary to bin.
func (c *checker) build(pkg, bin string, flags ...string) ([]byte, error) {
	args := append([]string{"test", "-c", "-o", bin}, flags...)
	cmd := exec.Command("go", append(args, "./"+pkg)...)
	cmd.Dir = c.root
	return cmd.CombinedOutput()
}

// runTests runs the entry's tests from the package directory, as go test
// does, so testdata paths resolve.
func (c *checker) runTests(m mutation, bin string) ([]byte, error) {
	cmd := exec.Command(bin, "-test.run", m.run, "-test.count=1", "-test.timeout=5m")
	cmd.Dir = filepath.Join(c.root, m.pkg)
	return cmd.CombinedOutput()
}

// head keeps the first lines of a test log, where go test reports the
// failing test and a panic's message.
func head(out []byte) string {
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	return strings.Join(lines[:min(len(lines), 10)], "\n")
}
