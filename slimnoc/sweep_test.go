package slimnoc

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// testSweep is a small two-network grid used across the sweep tests.
func testSweep() SweepSpec {
	base := RunSpec{
		Traffic: TrafficSpec{Rate: 0.05},
		Sim:     SimSpec{WarmupCycles: 100, MeasureCycles: 300, DrainCycles: 600, Seed: 7},
	}
	return SweepSpec{
		Name: "grid",
		Base: base,
		Axes: SweepAxes{
			Presets:  []string{"t2d54", "fbf54"},
			Patterns: []string{"rnd", "shf"},
			Loads:    []float64{0.02, 0.05},
		},
	}
}

// TestSweepExpansionOrder pins the documented cartesian nesting: networks
// slowest, then patterns, then loads.
func TestSweepExpansionOrder(t *testing.T) {
	sweep := testSweep()
	if got := sweep.NumPoints(); got != 8 {
		t.Fatalf("NumPoints = %d, want 8", got)
	}
	points, err := sweep.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("expanded %d points, want 8", len(points))
	}
	type key struct {
		preset, pattern string
		load            float64
	}
	want := []key{
		{"t2d54", "rnd", 0.02}, {"t2d54", "rnd", 0.05},
		{"t2d54", "shf", 0.02}, {"t2d54", "shf", 0.05},
		{"fbf54", "rnd", 0.02}, {"fbf54", "rnd", 0.05},
		{"fbf54", "shf", 0.02}, {"fbf54", "shf", 0.05},
	}
	for i, w := range want {
		p := points[i]
		got := key{p.Network.Preset, p.Traffic.Pattern, p.Traffic.Rate}
		if got != w {
			t.Errorf("point %d = %+v, want %+v", i, got, w)
		}
	}
	if points[0].Name != "grid/t2d54/rnd/load0.020" {
		t.Errorf("point 0 name = %q", points[0].Name)
	}
	// Unswept base fields are inherited.
	for i, p := range points {
		if p.Sim.MeasureCycles != 300 {
			t.Errorf("point %d lost base cycles: %+v", i, p.Sim)
		}
	}
}

// TestSweepSeedDerivation checks per-point seeds: derived deterministically
// from (base seed, index), distinct across points, stable across
// re-expansion, and overridden verbatim by an explicit seed axis.
func TestSweepSeedDerivation(t *testing.T) {
	sweep := testSweep()
	points, err := sweep.Points()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]int{}
	for i, p := range points {
		want := DeriveSeed(7, i)
		if p.Sim.Seed != want {
			t.Errorf("point %d seed = %d, want DeriveSeed(7,%d) = %d", i, p.Sim.Seed, i, want)
		}
		if p.Sim.Seed == 0 {
			t.Errorf("point %d got zero seed", i)
		}
		if j, dup := seen[p.Sim.Seed]; dup {
			t.Errorf("points %d and %d share seed %d", j, i, p.Sim.Seed)
		}
		seen[p.Sim.Seed] = i
	}
	again, err := sweep.Points()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points, again) {
		t.Error("re-expansion produced different points")
	}

	// Explicit seed axis: used verbatim, innermost.
	sweep.Axes.Seeds = []int64{11, 22}
	sweep.Axes.Patterns = nil
	sweep.Axes.Loads = nil
	points, err = sweep.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	for i, p := range points {
		if want := []int64{11, 22}[i%2]; p.Sim.Seed != want {
			t.Errorf("point %d seed = %d, want %d", i, p.Sim.Seed, want)
		}
	}
}

// TestSweepJSONRoundTrip checks a sweep file survives save/load with an
// identical expansion, and that unknown fields are rejected.
func TestSweepJSONRoundTrip(t *testing.T) {
	sweep := testSweep()
	path := t.TempDir() + "/sweep.json"
	data, err := json.MarshalIndent(sweep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSweep(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Points()
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Points()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("round-tripped sweep expands differently")
	}
	if _, err := parseSweep([]byte(`{"axes": {"loadz": [1]}}`)); err == nil {
		t.Error("unknown axis field accepted")
	}
}

// TestSweepValidation checks that a bad axis value surfaces at expansion
// time with the offending point named.
func TestSweepValidation(t *testing.T) {
	sweep := testSweep()
	sweep.Axes.Patterns = []string{"rnd", "nonsense"}
	if _, err := sweep.Points(); err == nil {
		t.Error("unknown pattern accepted")
	}
	sweep = testSweep()
	sweep.Axes.Presets = []string{"no_such_preset"}
	if _, err := sweep.Points(); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestSweepEmptyAxes checks a sweep with no axes is the base run alone.
func TestSweepEmptyAxes(t *testing.T) {
	sweep := SweepSpec{
		Base: RunSpec{
			Network: NetworkSpec{Preset: "t2d54"},
			Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.05},
			Sim:     SimSpec{Seed: 3},
		},
	}
	points, err := sweep.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("got %d points, want 1", len(points))
	}
	if points[0].Network.Preset != "t2d54" || points[0].Sim.Seed != DeriveSeed(3, 0) {
		t.Errorf("point 0 = %+v", points[0])
	}
}
