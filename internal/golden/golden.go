// Package golden pins the module's engine-derived test fixtures. Each
// fixture is bound, in one ledger at the module root
// (golden_ledger.json), to the version string that governs it and to the
// SHA-256 of its bytes, so a pinned value moves only together with its
// version: a golden test compares its run with the fixture, and the one
// update switch,
//
//	GOLDEN_UPDATE=1 go test ./...
//
// rewrites a fixture only when its version moved or the run merely adds
// cases. The switch needs a full run: -short and subtest filters judge a
// subset of the cases, so a re-pin refuses them.
//
// The package imports nothing from the module, so in-package tests of any
// package can use it.
package golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

const (
	// ledgerName is the ledger's file name at the module root.
	ledgerName = "golden_ledger.json"
	// updateEnv is the one switch that re-pins fixtures.
	updateEnv = "GOLDEN_UPDATE"
)

// entry is one fixture's ledger record.
type entry struct {
	Version string `json:"version"`
	SHA256  string `json:"sha256"`
}

// Check compares got with the fixture at path (relative to the calling
// test's package directory), pinned under version. A []byte got is the
// fixture's bytes verbatim, one JSON document per line; any other value is
// encoded as indented JSON. Values are compared case by case: a top-level
// object's keys, a top-level array's elements (by their "name" field when
// they have one), or the lines of a []byte fixture. In a partial run
// (-short or a subtest filter) only the cases got holds are compared.
//
// With GOLDEN_UPDATE set, Check re-pins the fixture instead: it records
// version and the new digest in the ledger and rewrites the fixture, and
// fails listing the moved, added and removed values, so the re-pin's
// report is shown. Under the version the ledger already holds it refuses
// to move or remove a pinned value, and only appends added cases.
//
// keep: test support; its callers are the module's golden tests.
func Check(t testing.TB, path, version string, got any) {
	t.Helper()
	data, lines, err := encode(got)
	if err != nil {
		t.Fatalf("golden: encode %s: %v", path, err)
	}
	root, rel, err := locate(path)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	if os.Getenv(updateEnv) == "" {
		if err := compare(root, rel, version, data, lines, partialRun()); err != nil {
			t.Error(err)
		}
		return
	}
	if partialRun() {
		t.Fatalf("golden: %s=1 re-pins from a full run: drop -short and subtest filters", updateEnv)
	}
	report, err := update(root, rel, version, data, lines)
	if err != nil {
		t.Fatal(err)
	}
	if report != "" {
		t.Errorf("golden: re-pinned; review the moved values and rerun without %s:\n%s", updateEnv, report)
	}
}

// encode returns got's fixture bytes and whether they are JSON lines.
func encode(got any) ([]byte, bool, error) {
	if b, ok := got.([]byte); ok {
		return b, true, nil
	}
	b, err := json.MarshalIndent(got, "", "  ")
	return append(b, '\n'), false, err
}

// locate returns the module root above the working directory and path
// relative to it, slash-separated as the ledger keys it.
func locate(path string) (root, rel string, err error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "", "", err
	}
	for root = filepath.Dir(abs); ; root = filepath.Dir(root) {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		if root == filepath.Dir(root) {
			return "", "", fmt.Errorf("no go.mod above %s", abs)
		}
	}
	rel, err = filepath.Rel(root, abs)
	return root, filepath.ToSlash(rel), err
}

// partialRun reports whether the test binary judges a subset of the cases:
// under -short, or with a -run pattern that selects subtests or a -skip
// pattern.
func partialRun() bool {
	if testing.Short() {
		return true
	}
	run, skip := flag.Lookup("test.run"), flag.Lookup("test.skip")
	return (run != nil && strings.Contains(run.Value.String(), "/")) || (skip != nil && skip.Value.String() != "")
}

// compare checks a run's fixture bytes against the pinned fixture.
func compare(root, rel, version string, data []byte, lines, partial bool) error {
	ledger, err := readLedger(root)
	if err != nil {
		return err
	}
	e, ok := ledger[rel]
	switch {
	case !ok:
		return fmt.Errorf("golden: %s has no ledger entry; pin it with %s=1 go test ./...", rel, updateEnv)
	case e.Version != version:
		return fmt.Errorf("golden: %s is pinned under %s but the code is %s; re-pin it with %s=1 go test ./...", rel, e.Version, version, updateEnv)
	}
	old, err := os.ReadFile(filepath.Join(root, rel))
	if err != nil {
		return err
	}
	if bytes.Equal(old, data) {
		return nil
	}
	d, err := diff(old, data, lines)
	if err != nil {
		return fmt.Errorf("golden: %s: %v", rel, err)
	}
	if partial {
		d.removed = nil
	}
	switch {
	case !d.empty():
		return fmt.Errorf("golden: %s differs from this run:\n%s", rel, d.report(rel))
	case !partial:
		return fmt.Errorf("golden: %s holds this run's values in other bytes; re-pin it with %s=1 go test ./...", rel, updateEnv)
	}
	return nil
}

// update re-pins the fixture rel under version to data, holding the
// ledger's lock, and returns the report of what it changed ("" when
// nothing). It refuses to move or remove a value the ledger pins under
// version.
func update(root, rel, version string, data []byte, lines bool) (string, error) {
	unlock, err := lock(root)
	if err != nil {
		return "", err
	}
	defer unlock()
	ledger, err := readLedger(root)
	if err != nil {
		return "", err
	}
	path := filepath.Join(root, rel)
	old, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "", err
	}
	e, pinned := ledger[rel]
	same := pinned && e.Version == version
	sum := digest(data)
	if same && e.SHA256 == sum && bytes.Equal(old, data) {
		return "", nil
	}
	d, err := diff(old, data, lines)
	if err != nil {
		return "", fmt.Errorf("golden: %s: %v", rel, err)
	}
	if same && (len(d.moved) > 0 || len(d.removed) > 0) {
		return "", fmt.Errorf("golden: refusing to re-pin %s: its values moved under unchanged version %s; bump the version to move them:\n%s", rel, version, d.report(rel))
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	ledger[rel] = entry{Version: version, SHA256: sum}
	if err := writeLedger(root, ledger); err != nil {
		return "", err
	}
	was := "no entry"
	if pinned {
		was = e.Version
	}
	return strings.TrimSuffix(fmt.Sprintf("%s: pinned under %s, was %s\n%s", rel, version, was, d.report(rel)), "\n"), nil
}

// verify checks every ledger entry against its fixture's bytes, holding
// the lock so a concurrent re-pin is seen whole.
func verify(root string) []error {
	unlock, err := lock(root)
	if err != nil {
		return []error{err}
	}
	defer unlock()
	ledger, err := readLedger(root)
	if err != nil {
		return []error{err}
	}
	var errs []error
	for _, rel := range slices.Sorted(maps.Keys(ledger)) {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if e := ledger[rel]; digest(data) != e.SHA256 {
			errs = append(errs, fmt.Errorf("%s: sha256 %s, the ledger pins %s under %s: a pinned fixture moves only with %s=1 and a version bump", rel, digest(data), e.SHA256, e.Version, updateEnv))
		}
	}
	return errs
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func readLedger(root string) (map[string]entry, error) {
	ledger := map[string]entry{}
	data, err := os.ReadFile(filepath.Join(root, ledgerName))
	if errors.Is(err, fs.ErrNotExist) {
		return ledger, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &ledger); err != nil {
		return nil, fmt.Errorf("%s: %v", ledgerName, err)
	}
	return ledger, nil
}

func writeLedger(root string, ledger map[string]entry) error {
	data, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, ledgerName), append(data, '\n'), 0o644)
}

// lock takes the ledger's lock file, which go test's package processes
// share, and returns its release. A lock older than a minute of retries is
// left by a killed run and must be removed by hand.
func lock(root string) (func(), error) {
	path := filepath.Join(root, ledgerName+".lock")
	for try := 0; ; try++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.Close()
			return func() { os.Remove(path) }, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, err
		}
		if try == 3000 {
			return nil, fmt.Errorf("golden: %s held for a minute; remove it if no re-pin is running", path)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// change is the case-wise difference between two fixtures: report lines
// for moved values, and the names of added and removed cases.
type change struct {
	moved, added, removed []string
}

func (d change) empty() bool {
	return len(d.moved)+len(d.added)+len(d.removed) == 0
}

// report spells a change as lines naming the fixture.
func (d change) report(rel string) string {
	var lines []string
	for _, m := range d.moved {
		lines = append(lines, rel+": "+m)
	}
	for _, c := range d.added {
		lines = append(lines, rel+": + "+c)
	}
	for _, c := range d.removed {
		lines = append(lines, rel+": - "+c)
	}
	return strings.Join(lines, "\n")
}

// diff compares the cases of fixture bytes old and new field by field.
func diff(old, new []byte, lines bool) (change, error) {
	var d change
	oldNames, oldCases, err := cases(old, lines)
	if err != nil {
		return d, err
	}
	newNames, newCases, err := cases(new, lines)
	if err != nil {
		return d, err
	}
	for _, name := range newNames {
		was, ok := oldCases[name]
		if !ok {
			d.added = append(d.added, name)
			continue
		}
		is := newCases[name]
		fields := slices.AppendSeq(slices.Collect(maps.Keys(was)), maps.Keys(is))
		slices.Sort(fields)
		for _, f := range slices.Compact(fields) {
			if a, b := orAbsent(was, f), orAbsent(is, f); a != b {
				d.moved = append(d.moved, strings.TrimSpace(name+" "+f)+": "+a+" → "+b)
			}
		}
	}
	for _, name := range oldNames {
		if _, ok := newCases[name]; !ok {
			d.removed = append(d.removed, name)
		}
	}
	return d, nil
}

func orAbsent(fields map[string]string, f string) string {
	if v, ok := fields[f]; ok {
		return v
	}
	return "(absent)"
}

// cases splits fixture bytes into named cases, in fixture order, each
// flattened to its leaf fields' JSON.
func cases(data []byte, lines bool) ([]string, map[string]map[string]string, error) {
	var names []string
	byName := map[string]map[string]string{}
	add := func(name string, v any) {
		fields := map[string]string{}
		flatten("", v, fields)
		names = append(names, name)
		byName[name] = fields
	}
	if len(data) == 0 {
		return nil, byName, nil
	}
	if lines {
		for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
			v, err := decode(line)
			if err != nil {
				return nil, nil, fmt.Errorf("line %d: %v", i+1, err)
			}
			add(fmt.Sprintf("line %d", i+1), v)
		}
		return names, byName, nil
	}
	v, err := decode(data)
	if err != nil {
		return nil, nil, err
	}
	switch x := v.(type) {
	case map[string]any:
		for _, k := range slices.Sorted(maps.Keys(x)) {
			add(k, x[k])
		}
	case []any:
		for i, e := range x {
			name := fmt.Sprintf("[%d]", i)
			if m, ok := e.(map[string]any); ok {
				if s, ok := m["name"].(string); ok {
					name = s
				}
			}
			add(name, e)
		}
	default:
		add("", v)
	}
	return names, byName, nil
}

// decode parses one JSON value, keeping numbers as their literal text.
func decode(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	err := dec.Decode(&v)
	return v, err
}

// flatten records each leaf of v under its dotted path below prefix, as
// the leaf's JSON.
func flatten(prefix string, v any, out map[string]string) {
	switch x := v.(type) {
	case map[string]any:
		if len(x) == 0 {
			out[prefix] = "{}"
		}
		for _, k := range slices.Sorted(maps.Keys(x)) {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, x[k], out)
		}
	case []any:
		if len(x) == 0 {
			out[prefix] = "[]"
		}
		for i, e := range x {
			flatten(fmt.Sprintf("%s[%d]", prefix, i), e, out)
		}
	default:
		b, _ := json.Marshal(x) // a decoded JSON leaf always re-encodes
		out[prefix] = string(b)
	}
}
