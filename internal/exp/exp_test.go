package exp

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/slimnoc"
)

func ctx() context.Context { return context.Background() }

func quick() Options { return Options{Quick: true, Seed: 1} }

// derive reproduces one manifest figure — FigureByID, RunFigure, Derive —
// and returns its derived tables.
func derive(t *testing.T, id string, o Options, copts ...slimnoc.CampaignOption) []*stats.Table {
	t.Helper()
	f, err := FigureByID(id, o)
	if err != nil {
		t.Fatal(err)
	}
	if f.Derive == nil {
		t.Fatalf("%s has no Derive", id)
	}
	run, err := RunFigure(ctx(), f, o, copts...)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := f.Derive(run)
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

func TestBuildNetAllNames(t *testing.T) {
	names := []string{
		"cm3", "cm4", "t2d3", "t2d4", "fbf3", "fbf4", "pfbf3", "pfbf4",
		"cm9", "cm8", "t2d9", "t2d8", "fbf9", "fbf8", "pfbf9", "pfbf8",
		"t2d54", "fbf54", "pfbf54",
		"sn_basic_200", "sn_subgr_200", "sn_gr_200", "sn_rand_200",
		"sn_gr_1296", "sn_subgr_1024", "sn_subgr_54",
	}
	for _, name := range names {
		net, err := preset(name)
		if err != nil {
			t.Fatalf("preset(%s): %v", name, err)
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := preset("nonsense"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestBuildNetSizes(t *testing.T) {
	cases := map[string]int{
		"cm3": 192, "fbf4": 200, "pfbf9": 1296, "sn_subgr_200": 200,
		"sn_gr_1296": 1296, "t2d54": 54, "sn_subgr_54": 54,
	}
	for name, n := range cases {
		net, err := preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if net.N() != n {
			t.Errorf("%s: N = %d, want %d", name, net.N(), n)
		}
	}
}

// TestRegistryComplete pins that every table and figure of the evaluation
// has derived tables, and that the snrepro-only families do not.
func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1a", "fig1bc", "fig3", "fig5", "fig6", "fig10a",
		"fig10b", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig20", "tab2", "tab3", "tab4", "tab5",
		"tab6", "sec55", "sens-sizes", "sens-conc", "sens-cycle", "resil",
		"abl-cbsize", "abl-vcs", "abl-smarth", "scale-smoke"}
	for _, id := range want {
		f, err := FigureByID(id, quick())
		if err != nil {
			t.Fatal(err)
		}
		if f.Derive == nil {
			t.Errorf("%s has no Derive", id)
		}
	}
	for _, id := range []string{"sat-nets", "sat-schemes", "sat-process", "scale-nets"} {
		f, err := FigureByID(id, quick())
		if err != nil {
			t.Fatal(err)
		}
		if f.Derive != nil {
			t.Errorf("%s: saturation-search figures have no derived tables", id)
		}
	}
	if _, err := FigureByID("nope", quick()); err == nil {
		t.Error("unknown id should fail")
	}
}

func TestTable2Experiment(t *testing.T) {
	tables := derive(t, "tab2", quick())
	if len(tables) != 1 {
		t.Fatal("Table2 should emit one table")
	}
	if len(tables[0].Rows) != 24 {
		t.Errorf("Table 2 has %d rows, paper has 24", len(tables[0].Rows))
	}
}

func TestTable3Experiment(t *testing.T) {
	tables := derive(t, "tab3", quick())
	if len(tables) != 6 {
		t.Fatalf("Table3 should emit 6 tables (add/mul/neg for F9 and F8), got %d", len(tables))
	}
	// F9 addition table: 9 rows of 10 cells.
	if len(tables[0].Rows) != 9 || len(tables[0].Rows[0]) != 10 {
		t.Errorf("F9 addition table shape wrong: %dx%d", len(tables[0].Rows), len(tables[0].Rows[0]))
	}
}

func TestTable4Experiment(t *testing.T) {
	tbl := derive(t, "tab4", quick())[0]
	if len(tbl.Rows) != 18 {
		t.Errorf("Table 4 has %d rows, want 18", len(tbl.Rows))
	}
	// SN row should show D=2, k'=7, k=11 for N=200.
	for _, row := range tbl.Rows {
		if row[0] == "sn_subgr_200" {
			if row[1] != "2" || row[3] != "7" || row[4] != "11" {
				t.Errorf("sn_subgr_200 row = %v", row)
			}
		}
	}
}

func TestFig5Experiment(t *testing.T) {
	tables := derive(t, "fig5", quick())
	if len(tables) != 4 {
		t.Fatalf("Fig5 should emit 4 tables, got %d", len(tables))
	}
	// Wiring constraint: observed max W must be below the 22nm bound in all
	// rows.
	wt := tables[3]
	for _, row := range wt.Rows {
		bound, _ := strconv.Atoi(row[len(row)-1])
		for i := 2; i < len(row)-1; i++ {
			w, err := strconv.Atoi(row[i])
			if err != nil {
				t.Fatalf("bad W cell %q", row[i])
			}
			if w > bound {
				t.Errorf("wiring constraint violated in row %v", row)
			}
		}
	}
}

func TestFig6Experiment(t *testing.T) {
	tables := derive(t, "fig6", quick())
	if len(tables) != 3 {
		t.Fatalf("Fig6 should emit 3 tables, got %d", len(tables))
	}
	for _, tbl := range tables {
		sum := 0.0
		for _, row := range tbl.Rows {
			v, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: sn_gr distribution sums to %.3f", tbl.ID, sum)
		}
	}
}

func TestFig3Experiment(t *testing.T) {
	tables := derive(t, "fig3", quick())
	if len(tables) != 3 {
		t.Fatalf("Fig3 should emit 3 tables, got %d", len(tables))
	}
	// 3b: SF straight on-chip should cost more than PFBF (the paper's
	// motivation: >30% more area).
	var sf, pfbf float64
	for _, row := range tables[1].Rows {
		total, _ := strconv.ParseFloat(row[len(row)-1], 64)
		switch row[0] {
		case "SF":
			sf = total
		case "PFBF":
			pfbf = total
		}
	}
	if sf <= pfbf {
		t.Errorf("straight SF area (%.5f) should exceed PFBF (%.5f)", sf, pfbf)
	}
}

func TestFig10aExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping layout sweep in short mode")
	}
	tables := derive(t, "fig10a", quick())
	if len(tables) != 3 {
		t.Fatalf("Fig10a should emit 3 tables, got %d", len(tables))
	}
	// At the lowest load, sn_subgr should beat sn_basic (its wires are
	// shorter) for RND.
	rnd := tables[1]
	first := rnd.Rows[0]
	basic := parseLat(t, first[1])
	subgr := parseLat(t, first[4])
	if subgr >= basic {
		t.Errorf("sn_subgr latency %.1f should be below sn_basic %.1f", subgr, basic)
	}
}

func parseLat(t *testing.T, s string) float64 {
	t.Helper()
	if s == "sat" {
		return 1e9
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad latency cell %q", s)
	}
	return v
}

func TestFig12Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping small-network SMART sweep in short mode")
	}
	tables := derive(t, "fig12", quick())
	if len(tables) != 4 {
		t.Fatalf("Fig12 should emit 4 tables, got %d", len(tables))
	}
	// RND, low load: SN must beat CM and T2D (paper: ratios 71%/86% at
	// load 0.008).
	for _, tbl := range tables {
		if !strings.Contains(tbl.ID, "RND") {
			continue
		}
		row := tbl.Rows[0]
		cm := parseLat(t, row[1])
		t2d := parseLat(t, row[2])
		sn := parseLat(t, row[5])
		if sn >= cm || sn >= t2d {
			t.Errorf("SN low-load latency %.1f should beat cm3 %.1f and t2d3 %.1f", sn, cm, t2d)
		}
	}
}

func TestFig15Experiment(t *testing.T) {
	tables := derive(t, "fig15", quick())
	if len(tables) != 3 {
		t.Fatal("Fig15 should emit 3 tables")
	}
	// fig15b: SN total area below FBF.
	var snA, fbfA float64
	for _, row := range tables[1].Rows {
		total, _ := strconv.ParseFloat(row[len(row)-1], 64)
		switch row[0] {
		case "sn_subgr_200":
			snA = total
		case "fbf4":
			fbfA = total
		}
	}
	if snA >= fbfA {
		t.Errorf("SN area %.4f should be below FBF %.4f (paper: 34%% less)", snA, fbfA)
	}
}

func TestSec55Experiment(t *testing.T) {
	tbl := derive(t, "sec55", quick())[0]
	if len(tbl.Rows) != 2 {
		t.Fatal("expected rows for N=200 and N=1296")
	}
	for _, row := range tbl.Rows {
		gain, _ := strconv.ParseFloat(row[3], 64)
		if gain <= 0 {
			t.Errorf("SN should be smaller than folded Clos: row %v", row)
		}
	}
}

func TestOptionsScaling(t *testing.T) {
	q, f := Options{Quick: true}, Options{}
	qw, qm, _ := q.Cycles()
	fw, fm, _ := f.Cycles()
	if qw >= fw || qm >= fm {
		t.Error("quick mode should use fewer cycles")
	}
	if len(q.Loads()) >= len(f.Loads()) {
		t.Error("quick mode should use fewer load points")
	}
}

func TestSensCycleTimeExperiment(t *testing.T) {
	tbl := derive(t, "sens-cycle", quick())[0]
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tbl.Rows))
	}
	// Uniform-clock column should equal cycles * 0.5.
	for _, row := range tbl.Rows {
		cycles, _ := strconv.ParseFloat(row[1], 64)
		uniform, _ := strconv.ParseFloat(row[4], 64)
		if diff := uniform - cycles*0.5; diff > 0.01 || diff < -0.01 {
			t.Errorf("uniform latency mismatch in row %v", row)
		}
	}
}

func TestResilienceExperiment(t *testing.T) {
	tbl := derive(t, "resil", quick())[0]
	// Row order: frac x {sn, fbf4, t2d4}. At 0% everything is connected.
	for i := 0; i < 3; i++ {
		conn, _ := strconv.ParseFloat(tbl.Rows[i][2], 64)
		if conn != 1 {
			t.Errorf("undamaged %s connectivity = %v", tbl.Rows[i][1], conn)
		}
	}
	// At 10% failures SN must stay connected with small diameter (the
	// expander property): diameter <= 4, and it is simulated.
	for _, row := range tbl.Rows {
		if row[0] == "10" && row[1] == "sn_subgr_200" {
			conn, _ := strconv.ParseFloat(row[2], 64)
			d, _ := strconv.Atoi(row[3])
			if conn < 0.99 {
				t.Errorf("SN connectivity at 10%% failures = %v", conn)
			}
			if d > 4 {
				t.Errorf("SN diameter at 10%% failures = %d", d)
			}
			if row[5] == "n/a" {
				t.Error("damaged SN was not simulated")
			}
		}
	}
}

func TestSensConcentrationExperiment(t *testing.T) {
	tbl := derive(t, "sens-conc", quick())[0]
	if len(tbl.Rows) != 3 {
		t.Fatalf("quick mode rows = %d, want 3", len(tbl.Rows))
	}
	// Higher concentration at fixed per-node load means more network
	// pressure: throughput per node should not increase with p.
	t4, _ := strconv.ParseFloat(tbl.Rows[0][4], 64)
	t8, _ := strconv.ParseFloat(tbl.Rows[2][4], 64)
	if t8 > t4*1.1 {
		t.Errorf("throughput grew with concentration: p4=%v p8=%v", t4, t8)
	}
}

func TestAblCBSizeExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping central-buffer ablation in short mode")
	}
	tables := derive(t, "abl-cbsize", quick())
	if len(tables) != 2 {
		t.Fatalf("want 2 tables, got %d", len(tables))
	}
	if len(tables[0].Rows) != 4 {
		t.Fatalf("quick mode should sweep 4 CB sizes, got %d", len(tables[0].Rows))
	}
}

func TestAblVCsExperiment(t *testing.T) {
	tbl := derive(t, "abl-vcs", quick())[0]
	if len(tbl.Rows) != 3 {
		t.Fatalf("want 3 VC rows, got %d", len(tbl.Rows))
	}
}

func TestAblSmartHExperiment(t *testing.T) {
	tbl := derive(t, "abl-smarth", quick())[0]
	// H=9 must not be slower than H=1 on the long-wire basic layout.
	h1, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	h9, _ := strconv.ParseFloat(tbl.Rows[1][1], 64)
	if h9 >= h1 {
		t.Errorf("H=9 latency %.1f should beat H=1 %.1f", h9, h1)
	}
}
