package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// reproduce runs the driver on -figs figs -short against the given store
// and output directories, returning its exit code and stdout.
func reproduce(t *testing.T, figs, storeDir, outDir string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-figs", figs, "-short", "-store", storeDir, "-out", outDir}, &stdout, &stderr)
	if code != 0 {
		t.Logf("stderr:\n%s", stderr.String())
	}
	return code, stdout.String()
}

// readDir returns every file of dir by name.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestReportsAndWarmRerun reproduces an analytic table and a simulated
// figure: the reports carry the derived tables and a Claims section, the
// run ends with the verdict table, and a warm rerun simulates nothing and
// rewrites byte-identical files.
func TestReportsAndWarmRerun(t *testing.T) {
	storeDir, cold, warm := t.TempDir(), t.TempDir(), t.TempDir()
	code, out := reproduce(t, "tab4,fig19", storeDir, cold)
	if code != 0 {
		t.Fatalf("cold run exited %d:\n%s", code, out)
	}
	files := readDir(t, cold)
	for _, name := range []string{"tab4.md", "tab4-tables.csv", "fig19.md", "fig19.csv", "fig19-tables.csv"} {
		if files[name] == "" {
			t.Errorf("no %s among %d files", name, len(files))
		}
	}
	if _, ok := files["tab4.csv"]; ok {
		t.Error("analytic tab4 got a per-point CSV")
	}
	for _, want := range []string{"## Derived tables", "**fig19a** — ", "**fig19bc-dynamic** — ", "## Claims", "| fig19/sn-below-t2d | holds |"} {
		if !strings.Contains(files["fig19.md"], want) {
			t.Errorf("fig19.md lacks %q", want)
		}
	}
	if !strings.Contains(files["tab4.md"], "**tab4** — ") || !strings.Contains(files["tab4.md"], "## Claims") {
		t.Errorf("tab4.md lacks its derived table or Claims section:\n%s", files["tab4.md"])
	}
	if !strings.HasPrefix(files["fig19-tables.csv"], "load,fbf54,pfbf54,sn_subgr_54,t2d54\n0.008,") {
		t.Errorf("fig19-tables.csv starts %q", files["fig19-tables.csv"][:40])
	}
	if !strings.Contains(out, "**claims** — ") || !strings.Contains(out, "| fig19/sn-below-t2d |") {
		t.Errorf("stdout lacks the verdict table:\n%s", out)
	}

	code, out = reproduce(t, "tab4,fig19", storeDir, warm)
	if code != 0 {
		t.Fatalf("warm run exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "(16 from store, 0 simulated)") {
		t.Errorf("warm rerun simulated points:\n%s", out)
	}
	if again := readDir(t, warm); len(again) != len(files) {
		t.Errorf("warm run wrote %d files, cold %d", len(again), len(files))
	} else {
		for name, data := range files {
			if again[name] != data {
				t.Errorf("warm %s differs from cold", name)
			}
		}
	}
}

func TestUnknownFigureFails(t *testing.T) {
	if code, out := reproduce(t, "tab4,fig99", t.TempDir(), t.TempDir()); code != 1 {
		t.Errorf("unknown figure exited %d, want 1:\n%s", code, out)
	}
}
