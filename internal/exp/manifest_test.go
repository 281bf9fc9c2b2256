package exp

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/slimnoc"
	"repro/slimnoc/store"
)

// manifestOptions are the quick-mode options the manifest tests expand
// under; tiny explicit cycles keep the end-to-end test fast.
func manifestOptions() Options {
	return Options{Quick: true, Seed: 3, Jobs: 2,
		WarmupCycles: 100, MeasureCycles: 300, DrainCycles: 600}
}

// TestManifestExpandsAndValidates expands every manifest sweep: every
// figure must contribute a grid whose points all validate, a search, or
// derived tables; figure and claim IDs must be unique; every figure
// without saturation searches must have a Derive, so snrepro always
// renders its tables; and only a figure with a Derive may declare claims.
func TestManifestExpandsAndValidates(t *testing.T) {
	for _, quick := range []bool{true, false} {
		o := manifestOptions()
		o.Quick = quick
		seen := map[string]bool{}
		for _, f := range Manifest(o) {
			if seen[f.ID] {
				t.Errorf("duplicate manifest ID %q", f.ID)
			}
			seen[f.ID] = true
			if len(f.Sats) == 0 && f.Derive == nil {
				t.Errorf("%s: figure without searches has no Derive", f.ID)
			}
			if len(f.Claims) > 0 && f.Derive == nil {
				t.Errorf("%s: claims without derived tables to judge them on", f.ID)
			}
			for _, c := range f.Claims {
				if seen[f.ID+"/"+c.ID] {
					t.Errorf("duplicate claim ID %s/%s", f.ID, c.ID)
				}
				seen[f.ID+"/"+c.ID] = true
			}
			for _, s := range f.Sweeps {
				points, err := s.Points()
				if err != nil {
					t.Errorf("%s sweep %s: %v", f.ID, s.Name, err)
					continue
				}
				if len(points) == 0 {
					t.Errorf("%s sweep %s: empty grid", f.ID, s.Name)
				}
			}
			for _, s := range f.Sats {
				if err := s.Validate(); err != nil {
					t.Errorf("%s search %s: %v", f.ID, s.Name, err)
				}
			}
		}
	}
}

// TestManifestDeterministic pins that two Manifest calls with equal options
// produce identical grids — the property that lets a result store serve a
// rerun byte-identically.
func TestManifestDeterministic(t *testing.T) {
	o := manifestOptions()
	a, err := json.Marshal(Manifest(o))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(Manifest(o))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("Manifest is not deterministic for equal options")
	}
}

func TestFigureByID(t *testing.T) {
	o := manifestOptions()
	f, err := FigureByID("FIG12", o)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "fig12" {
		t.Errorf("FigureByID returned %q", f.ID)
	}
	if _, err := FigureByID("no-such-fig", o); err == nil {
		t.Error("unknown figure did not error")
	}
	ids := FigureIDs()
	if len(ids) < 15 {
		t.Errorf("manifest lists only %d figures", len(ids))
	}
}

// TestRunFigureWithStoreRoundTrip reproduces a small manifest figure twice
// against one store: the warm rerun must simulate nothing and render
// byte-identical Markdown and CSV reports.
func TestRunFigureWithStoreRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	o := manifestOptions()
	fig, err := FigureByID("abl-vcs", o)
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	cold, err := RunFigure(context.Background(), fig, o, slimnoc.WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	cCached, cFresh := cold.CachedCount()
	if cCached != 0 || cFresh == 0 {
		t.Fatalf("cold run: %d cached, %d fresh", cCached, cFresh)
	}

	warm, err := RunFigure(context.Background(), fig, o, slimnoc.WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	wCached, wFresh := warm.CachedCount()
	if wFresh != 0 || wCached != cFresh {
		t.Fatalf("warm run: %d cached, %d fresh; want all %d cached", wCached, wFresh, cFresh)
	}

	if cold.Markdown() != warm.Markdown() {
		t.Error("warm Markdown report differs from cold")
	}
	if cold.CSV() != warm.CSV() {
		t.Error("warm CSV report differs from cold")
	}

	// The reports carry real content: a row per point, parseable CSV.
	rows, err := csv.NewReader(strings.NewReader(cold.CSV())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != cFresh+1 {
		t.Errorf("CSV has %d rows, want %d points + header", len(rows), cFresh)
	}
	md := cold.Markdown()
	if !strings.Contains(md, "# abl-vcs") || !strings.Contains(md, "| point |") {
		t.Errorf("Markdown report missing title or table:\n%s", md)
	}
}

// TestRunSatFigureWithStoreRoundTrip exercises the saturation-search figure
// machinery end to end on a small network: probes persist to the store, the
// warm rerun simulates nothing, and both report renderings stay
// byte-identical — the same contract grid figures satisfy.
func TestRunSatFigureWithStoreRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	o := manifestOptions()
	fig := Figure{
		ID: "sat-test", Title: "saturation round trip", Section: "test",
		Sats: []slimnoc.SaturationSpec{{
			Name: "sat-test/t2d54/rnd",
			Base: slimnoc.RunSpec{
				Network: slimnoc.NetworkSpec{Preset: "t2d54"},
				Traffic: slimnoc.TrafficSpec{Pattern: "rnd"},
				Sim:     o.SimSpec(),
			},
			MinLoad: 0.05, MaxLoad: 0.45, Step: 0.05, LatencyFactor: 3,
		}},
	}

	st, err := store.Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	cold, err := RunFigure(context.Background(), fig, o, slimnoc.WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	cCached, cFresh := cold.CachedCount()
	if cCached != 0 || cFresh == 0 {
		t.Fatalf("cold run: %d cached, %d fresh", cCached, cFresh)
	}
	if len(cold.Sats) != 1 || len(cold.Sats[0].Probes) != cFresh {
		t.Fatalf("search results inconsistent: %d sats, CachedCount fresh %d", len(cold.Sats), cFresh)
	}

	warm, err := RunFigure(context.Background(), fig, o, slimnoc.WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	wCached, wFresh := warm.CachedCount()
	if wFresh != 0 || wCached != cFresh {
		t.Fatalf("warm run: %d cached, %d fresh; want all %d cached", wCached, wFresh, cFresh)
	}
	if warm.Sats[0].SaturationLoad != cold.Sats[0].SaturationLoad {
		t.Errorf("warm saturation load %.3f differs from cold %.3f",
			warm.Sats[0].SaturationLoad, cold.Sats[0].SaturationLoad)
	}
	if cold.Markdown() != warm.Markdown() {
		t.Error("warm Markdown report differs from cold")
	}
	if cold.CSV() != warm.CSV() {
		t.Error("warm CSV report differs from cold")
	}
	md := cold.Markdown()
	if !strings.Contains(md, "saturation_load") {
		t.Errorf("Markdown report missing the saturation table:\n%s", md)
	}
	rows, err := csv.NewReader(strings.NewReader(cold.CSV())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != cFresh+1 {
		t.Errorf("CSV has %d rows, want %d probes + header", len(rows), cFresh)
	}
}
