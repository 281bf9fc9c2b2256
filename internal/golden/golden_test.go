package golden

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestLedger checks the module's ledger: every fixture it names still has
// the bytes it pins.
func TestLedger(t *testing.T) {
	root, _, err := locate(".")
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := readLedger(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ledger) == 0 {
		t.Fatalf("%s pins no fixture", ledgerName)
	}
	for _, err := range verify(root) {
		t.Error(err)
	}
}

// pin re-pins one fixture under a temporary root and fails the test on a
// refusal.
func pin(t *testing.T, root, rel, version string, got any) string {
	t.Helper()
	data, lines, err := encode(got)
	if err != nil {
		t.Fatal(err)
	}
	report, err := update(root, rel, version, data, lines)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestLedgerNamesChangedFixture flips one value of a pinned fixture under
// an unchanged version: the ledger check fails and names the file.
func TestLedgerNamesChangedFixture(t *testing.T) {
	root := t.TempDir()
	pin(t, root, "a.json", "v1", map[string]int{"x": 1})
	pin(t, root, "b.json", "v1", map[string]int{"y": 2})
	if errs := verify(root); len(errs) != 0 {
		t.Fatalf("fresh pins fail the ledger check: %v", errs)
	}
	path := filepath.Join(root, "b.json")
	if err := os.WriteFile(path, []byte(strings.Replace(readFile(t, path), "2", "3", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	errs := verify(root)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "b.json") {
		t.Fatalf("ledger check after editing b.json = %v, want one error naming b.json", errs)
	}
}

// TestUpdateRefusesMovedValue re-pins under the version the ledger already
// holds: a moved or removed value is refused and reported, old → new, and
// the fixture keeps its bytes; an added case is accepted.
func TestUpdateRefusesMovedValue(t *testing.T) {
	root := t.TempDir()
	type result struct{ Latency, Hops float64 }
	pin(t, root, "f.json", "v1", map[string]result{"a": {20.5, 1.8}, "b": {30, 2}})
	before := readFile(t, filepath.Join(root, "f.json"))
	for _, c := range []struct {
		got  map[string]result
		want string
	}{
		{map[string]result{"a": {20.75, 1.8}, "b": {30, 2}}, "f.json: a Latency: 20.5 → 20.75"},
		{map[string]result{"a": {20.5, 1.8}}, "f.json: - b"},
	} {
		data, lines, err := encode(c.got)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := update(root, "f.json", "v1", data, lines); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("re-pin of %v under v1: %v, want a refusal reporting %q", c.got, err, c.want)
		}
		if readFile(t, filepath.Join(root, "f.json")) != before {
			t.Fatal("a refused re-pin rewrote the fixture")
		}
	}
	report := pin(t, root, "f.json", "v1", map[string]result{"a": {20.5, 1.8}, "b": {30, 2}, "c": {40, 3}})
	if !strings.Contains(report, "f.json: + c") {
		t.Errorf("appending case c reported %q", report)
	}
	if errs := verify(root); len(errs) != 0 {
		t.Fatal(errs)
	}
}

// TestUpdateNewVersion moves a pinned value under a new version: the
// fixture is rewritten, the report lists the move, and the ledger records
// the version and the new bytes' digest.
func TestUpdateNewVersion(t *testing.T) {
	root := t.TempDir()
	pin(t, root, "f.json", "v1", []map[string]string{{"name": "p", "key": "k1"}})
	report := pin(t, root, "f.json", "v2", []map[string]string{{"name": "p", "key": "k2"}})
	for _, want := range []string{"f.json: pinned under v2, was v1", `f.json: p key: "k1" → "k2"`} {
		if !strings.Contains(report, want) {
			t.Errorf("report %q does not list %q", report, want)
		}
	}
	ledger, err := readLedger(root)
	if err != nil {
		t.Fatal(err)
	}
	if e := ledger["f.json"]; e.Version != "v2" || e.SHA256 != digest([]byte(readFile(t, filepath.Join(root, "f.json")))) {
		t.Errorf("ledger entry %+v does not pin the rewritten fixture under v2", e)
	}
	if !strings.Contains(readFile(t, filepath.Join(root, "f.json")), "k2") {
		t.Error("fixture not rewritten")
	}
}

// TestCompare pins the default mode: a moved value fails naming its case
// and field, a fixture case the run lacks fails unless the run is partial,
// a case the fixture lacks fails, and a fixture pinned under another
// version fails.
func TestCompare(t *testing.T) {
	root := t.TempDir()
	pin(t, root, "t.jsonl", "v1", []byte("{\"op\":\"hello\",\"engine\":\"e1\"}\n{\"op\":\"bye\"}\n"))
	for _, c := range []struct {
		got     string
		version string
		partial bool
		want    string
	}{
		{"{\"op\":\"hello\",\"engine\":\"e1\"}\n{\"op\":\"bye\"}\n", "v1", false, ""},
		{"{\"op\":\"hello\",\"engine\":\"e2\"}\n{\"op\":\"bye\"}\n", "v1", false, `t.jsonl: line 1 engine: "e1" → "e2"`},
		{"{\"op\":\"hello\",\"engine\":\"e1\"}\n", "v1", false, "t.jsonl: - line 2"},
		{"{\"op\":\"hello\",\"engine\":\"e1\"}\n", "v1", true, ""},
		{"{\"op\":\"hello\",\"engine\":\"e1\"}\n{\"op\":\"bye\"}\n{}\n", "v1", true, "t.jsonl: + line 3"},
		{"{\"op\":\"hello\",\"engine\":\"e1\"}\n{\"op\":\"bye\"}\n", "v2", false, "pinned under v1 but the code is v2"},
	} {
		err := compare(root, "t.jsonl", c.version, []byte(c.got), true, c.partial)
		if (err == nil) != (c.want == "") || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("compare(%q, %s, partial %v) = %v, want %q", c.got, c.version, c.partial, err, c.want)
		}
	}
}

// TestConcurrentWriters re-pins fixtures from several processes at once,
// as go test's package processes do: the ledger loses no entry.
func TestConcurrentWriters(t *testing.T) {
	if root := os.Getenv("GOLDEN_WRITER_ROOT"); root != "" {
		writer, _ := strconv.Atoi(os.Getenv("GOLDEN_WRITER_ID"))
		for i := 0; i < 5; i++ {
			pin(t, root, fmt.Sprintf("w%d_%d.json", writer, i), "v1", map[string]int{"i": i})
		}
		return
	}
	const writers = 4
	root := t.TempDir()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestConcurrentWriters$")
		cmd.Env = append(os.Environ(), "GOLDEN_WRITER_ROOT="+root, "GOLDEN_WRITER_ID="+strconv.Itoa(w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Errorf("writer: %v\n%s", err, out)
			}
		}()
	}
	wg.Wait()
	ledger, err := readLedger(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ledger) != writers*5 {
		t.Errorf("ledger holds %d entries, %d writers pinned %d", len(ledger), writers, writers*5)
	}
	if errs := verify(root); len(errs) != 0 {
		t.Error(errs)
	}
}
