package exp

import (
	"context"
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
		// slimnoc's TestPresetsResolveAndBuild checks the adjacency of
		// each of these presets; here every name must resolve.
		if _, err := preset(name); err != nil {
			t.Fatalf("preset(%s): %v", name, err)
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

// read derives a figure at quick mode and returns a Reader over its
// tables; the test fails on the first failed lookup.
func read(t *testing.T, id string) *Reader {
	t.Helper()
	r := &Reader{Tables: derive(t, id, quick())}
	t.Cleanup(func() {
		if r.Err != nil {
			t.Errorf("%s: %v", id, r.Err)
		}
	})
	return r
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
	r := read(t, "tab4")
	// The SN row shows D=2, k'=7, k=11 for N=200.
	for col, want := range map[string]string{"D": "2", "k'": "7", "k": "11"} {
		if got := r.cell("tab4", "sn_subgr_200", col); got != want {
			t.Errorf("sn_subgr_200 %s = %q, want %q", col, got, want)
		}
	}
}

func TestFig6Experiment(t *testing.T) {
	r := read(t, "fig6")
	for _, tbl := range r.Tables {
		sum := 0.0
		for _, bin := range r.labels(tbl.ID) {
			sum += r.num(tbl.ID, bin, "sn_gr")
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: sn_gr distribution sums to %.3f", tbl.ID, sum)
		}
	}
}

func TestOptionsScaling(t *testing.T) {
	q, f := Options{Quick: true}, Options{}
	qw, qm, _ := q.cycles()
	fw, fm, _ := f.cycles()
	if qw >= fw || qm >= fm {
		t.Error("quick mode should use fewer cycles")
	}
	if len(q.loads()) >= len(f.loads()) {
		t.Error("quick mode should use fewer load points")
	}
}

func TestSensCycleTimeExperiment(t *testing.T) {
	r := read(t, "sens-cycle")
	// The uniform-clock column equals cycles * 0.5.
	for _, net := range r.labels("sens-cycle") {
		cycles := r.num("sens-cycle", net, "latency_cycles")
		uniform := r.num("sens-cycle", net, "latency_ns_uniform_0.5")
		if diff := uniform - cycles*0.5; diff > 0.01 || diff < -0.01 {
			t.Errorf("%s: uniform-clock latency %v, want %v", net, uniform, cycles*0.5)
		}
	}
}

func TestResilienceExperiment(t *testing.T) {
	r := read(t, "resil")
	// Undamaged, every network is connected.
	for _, net := range []string{"sn_subgr_200", "fbf4", "t2d4"} {
		if conn := r.num("resil", "0/"+net, "connectivity"); conn != 1 {
			t.Errorf("undamaged %s connectivity = %v", net, conn)
		}
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
