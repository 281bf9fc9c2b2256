package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
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

// TestReportsAndWarmRerun reproduces each figure set cold, then reruns it
// warm against the same store: the warm run must simulate nothing and
// rewrite byte-identical files. The sets cover an analytic table with a
// simulated figure, a latency grid, a saturation search and the 10k-node
// scale point under its memory budget. The first set also checks the
// report layout: derived tables, a Claims section and the closing verdict
// table.
func TestReportsAndWarmRerun(t *testing.T) {
	cases := []struct {
		figs  string
		check func(t *testing.T, files map[string]string, out string)
	}{
		{"tab4,fig19", checkTab4Fig19},
		{"fig12", nil},
		{"sat-schemes", nil},
		{"scale-smoke", nil},
	}
	for _, c := range cases {
		t.Run(c.figs, func(t *testing.T) {
			storeDir, cold, warm := t.TempDir(), t.TempDir(), t.TempDir()
			code, out := reproduce(t, c.figs, storeDir, cold)
			if code != 0 {
				t.Fatalf("cold run exited %d:\n%s", code, out)
			}
			files := readDir(t, cold)
			if c.check != nil {
				c.check(t, files, out)
			}

			code, out = reproduce(t, c.figs, storeDir, warm)
			if code != 0 {
				t.Fatalf("warm run exited %d:\n%s", code, out)
			}
			if n := strings.Count(out, " simulated)"); n == 0 || n != strings.Count(out, " 0 simulated)") {
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
		})
	}
}

// checkTab4Fig19 checks the reports of an analytic table and a simulated
// figure and the run's closing verdict table.
func checkTab4Fig19(t *testing.T, files map[string]string, out string) {
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
	if !strings.Contains(out, "   16 points (0 from store, 16 simulated)") {
		t.Errorf("cold run did not simulate fig19's 16 points:\n%s", out)
	}
	if !strings.Contains(out, "**claims** — ") || !strings.Contains(out, "| fig19/sn-below-t2d |") {
		t.Errorf("stdout lacks the verdict table:\n%s", out)
	}
}

func TestUnknownFigureFails(t *testing.T) {
	if code, out := reproduce(t, "tab4,fig99", t.TempDir(), t.TempDir()); code != 1 {
		t.Errorf("unknown figure exited %d, want 1:\n%s", code, out)
	}
}

// analysis runs a subcommand and returns its exit code, stdout and stderr.
func analysis(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// tableCells parses the aligned tables a subcommand prints into cells by
// table ID, row label (first column) and column name.
func tableCells(t *testing.T, out string) map[string]map[string]map[string]string {
	t.Helper()
	tables := map[string]map[string]map[string]string{}
	for _, block := range strings.Split(strings.TrimSpace(out), "\n\n") {
		lines := strings.Split(block, "\n")
		id, _, ok := strings.Cut(strings.TrimPrefix(lines[0], "# "), ":")
		if !ok || len(lines) < 2 {
			t.Fatalf("not a table:\n%s", block)
		}
		header := strings.Fields(lines[1])
		rows := map[string]map[string]string{}
		for _, line := range lines[2:] {
			cells := strings.Fields(line)
			row := map[string]string{}
			for i, c := range cells {
				row[header[i]] = c
			}
			rows[cells[0]] = row
		}
		tables[id] = rows
	}
	return tables
}

// num parses a table cell.
func num(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

// TestLayoutSubcommand pins snrepro layout on SN q=5 against the values the
// standalone layout tool printed: subgroup M 3.91 and 52 wires over a
// router, 7580 network-wide edge-buffer flits (per router × Nr), 2400 for
// CBR-20, and a 1-2 distance bin of 0.371.
func TestLayoutSubcommand(t *testing.T) {
	code, out, errOut := analysis("layout", "-q", "5", "-p", "4", "-dist")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errOut)
	}
	cells := tableCells(t, out)
	sg := cells["layouts"]["sn_subgr"]
	if sg["die"] != "5x10" || sg["Nr"] != "50" || sg["N"] != "200" || sg["k'"] != "7" {
		t.Errorf("layouts row sn_subgr = %v", sg)
	}
	nr := num(t, sg["Nr"])
	for _, c := range []struct {
		table, row, col string
		scale, want     float64
		prec            float64
	}{
		{"fig5a", "5", "sn_subgr", 1, 3.91, 0.005},
		{"fig5a", "5", "sn_gr", 1, 4.67, 0.005},
		{"fig5b", "5", "sn_subgr", nr, 7580, 0.5},
		{"fig5b", "5", "CBR20", nr, 2400, 0.5},
		{"fig5d", "5", "sn_subgr", 1, 52, 0},
		{"fig5d", "5", "W_bound_45nm", 1, 7000, 0},
		{"fig5d", "5", "W_bound_11nm", 1, 7000, 0},
		{"fig6-N200", "1-2", "sn_subgr", 1, 0.371, 0.0005},
		{"fig6-N200", "1-2", "sn_gr", 1, 0.291, 0.0005},
	} {
		got := num(t, cells[c.table][c.row][c.col]) * c.scale
		if math.Abs(got-c.want) > c.prec {
			t.Errorf("%s[%s][%s] = %g, want %g", c.table, c.row, c.col, got, c.want)
		}
	}
}

// TestPowerSubcommand pins snrepro power on sn_subgr_200 with SMART against
// the values the standalone power tool printed (totals; the tables print
// per node, to four significant digits), and checks that each run is
// priced at the buffers its engine allocated: 3500 flits for EB-Small's 5
// per VC on 350 links × 2 VCs, and 3104 for a central-buffer run (50 × 20
// central-buffer flits, plus 2 VCs × (1-flit input latch + 2 or 3 elastic
// pipeline slots) on each link).
func TestPowerSubcommand(t *testing.T) {
	code, out, errOut := analysis("power", "-net", "sn_subgr_200", "-smart")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errOut)
	}
	cells := tableCells(t, out)
	row := cells["power"]["sn_subgr_200"]
	if row["buffer_flits"] != "3500" || row["N"] != "200" {
		t.Errorf("power row = %v", row)
	}
	for _, c := range []struct {
		table, col  string
		scale, want float64
	}{
		{"power-area", "total", 200, 2.2418},
		{"power-static", "total", 200, 2.205},
		{"power-dynamic", "total", 200, 18.855},
		{"power", "flits_per_J", 1, 4564681345.0},
	} {
		got := num(t, cells[c.table]["sn_subgr_200"][c.col]) * c.scale
		if math.Abs(got/c.want-1) > 1e-3 {
			t.Errorf("%s %s = %g, want %g", c.table, c.col, got, c.want)
		}
	}

	code, out, errOut = analysis("power", "-net", "sn_subgr_200", "-smart", "-scheme", "cbr", "-cb", "20")
	if code != 0 {
		t.Fatalf("cbr exit %d:\n%s", code, errOut)
	}
	if got := tableCells(t, out)["power"]["sn_subgr_200"]["buffer_flits"]; got != "3104" {
		t.Errorf("cbr-20 run priced %s buffer flits, want 3104", got)
	}
}

func TestSubcommandErrors(t *testing.T) {
	code, _, errOut := analysis("powr", "-net", "sn_subgr_200")
	if code != 2 || !strings.Contains(errOut, "(have layout, power;") {
		t.Errorf("unknown subcommand: exit %d, stderr %q", code, errOut)
	}
	code, _, errOut = analysis("power", "-tech", "7nm")
	if code != 1 || !strings.Contains(errOut, `unknown tech "7nm" (have 45nm, 22nm)`) {
		t.Errorf("-tech 7nm: exit %d, stderr %q", code, errOut)
	}
	code, _, errOut = analysis("layout", "-net", "t2d54")
	if code != 1 || !strings.Contains(errOut, `Slim NoC layouts only, got topology "torus"`) {
		t.Errorf("layout of a torus: exit %d, stderr %q", code, errOut)
	}
}
