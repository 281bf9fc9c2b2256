package slimnoc

import (
	"context"
	"runtime"
	"strings"
	"testing"
)

// budgetSpec is a small run both budget and cycle-step tests reuse.
func budgetSpec() RunSpec {
	return RunSpec{
		Network: NetworkSpec{Preset: "t2d54"},
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.05},
		Sim:     SimSpec{WarmupCycles: 300, MeasureCycles: 900, DrainCycles: 1500, Seed: 9},
	}
}

// TestWithCycleStepIdentity pins the facade half of the event calendar's
// exact-equivalence contract: a run with WithCycleStep must produce the
// same Result as the default calendar engine (the engine-level proof lives
// in internal/sim's differential and golden-idle suites).
func TestWithCycleStepIdentity(t *testing.T) {
	cal, err := Run(context.Background(), budgetSpec())
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := Run(context.Background(), budgetSpec(), WithCycleStep())
	if err != nil {
		t.Fatal(err)
	}
	if cal.Raw != cyc.Raw {
		t.Errorf("calendar result %+v != cycle-stepped %+v", cal.Raw, cyc.Raw)
	}
	if cyc.Engine.CyclesSkipped != 0 || cyc.Engine.CalendarPeak != 0 {
		t.Errorf("cycle-stepped run reported skip telemetry: %+v", cyc.Engine)
	}
}

// TestWithMemBudget checks both sides of the budget: an absurdly small cap
// rejects the run with a sizing error before the engine allocates, and a
// generous cap changes nothing about the result.
func TestWithMemBudget(t *testing.T) {
	_, err := Run(context.Background(), budgetSpec(), WithMemBudget(1024))
	if err == nil {
		t.Fatal("1 KiB budget accepted a t2d54 engine")
	}
	if !strings.Contains(err.Error(), "MemBudgetBytes") {
		t.Errorf("budget error %q does not name MemBudgetBytes", err)
	}

	capped, err := Run(context.Background(), budgetSpec(), WithMemBudget(1<<28))
	if err != nil {
		t.Fatal(err)
	}
	free, err := Run(context.Background(), budgetSpec())
	if err != nil {
		t.Fatal(err)
	}
	if capped.Raw != free.Raw {
		t.Errorf("budgeted result %+v != unbudgeted %+v", capped.Raw, free.Raw)
	}

	// A run that compiles its own table: the budget is checked against the
	// table's nr^2 bytes, so the error arrives before any of it is allocated
	// — the bytes the refused Run allocated stay far below the table it
	// declined to build.
	spec := tableBustsBudget()
	net, kind, err := BuildNetwork(spec.Network)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Run(context.Background(), spec, WithNetwork(net, kind), WithMemBudget(tableBudget))
	runtime.ReadMemStats(&after)
	checkTableBudgetError(t, err)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Errorf("refused run allocated %d KiB; the table must be rejected before it is laid down", got>>10)
	}

	// The 512-router SN's table is 0.25 MiB, so the whole N=4096 point fits
	// the same 8 MiB budget — and allocates accordingly.
	spec = compactFitsBudget()
	if net, kind, err = BuildNetwork(spec.Network); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	_, err = Run(context.Background(), spec, WithNetwork(net, kind), WithMemBudget(tableBudget))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("8 MiB budget on the 512-router SN: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 12<<20 {
		t.Errorf("the N=4096 point allocated %d KiB, want under 12 MiB", got>>10)
	}
}

// tableBustsBudget is a point whose DOR route table (12544^2 bytes, 150 MiB,
// on the 100k-endpoint torus) exceeds tableBudget.
func tableBustsBudget() RunSpec {
	return RunSpec{
		Network: NetworkSpec{Preset: "t2d100k"},
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.008},
		Sim:     SimSpec{WarmupCycles: 10, MeasureCycles: 20, DrainCycles: 40, Seed: 9},
	}
}

// compactFitsBudget is the N=4096 SN point, table and engine, inside
// tableBudget.
func compactFitsBudget() RunSpec {
	spec := tableBustsBudget()
	spec.Network = NetworkSpec{Topology: "sn", Q: 16, Conc: 8, Layout: "subgr"}
	return spec
}

const tableBudget = 8 << 20

// checkTableBudgetError asserts err is the route-table sizing error.
func checkTableBudgetError(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("an 8 MiB budget accepted a 150 MiB route table")
	}
	if !strings.Contains(err.Error(), "MemBudgetBytes") || !strings.Contains(err.Error(), "route table") {
		t.Errorf("error %q does not name the route table and MemBudgetBytes", err)
	}
}

// TestCampaignMemBudget checks the campaign plumbing: with a tiny per-point
// budget every point fails with the sizing error (and the shared route-table
// compile for oversized networks is skipped rather than allocated).
func TestCampaignMemBudget(t *testing.T) {
	results, err := RunCampaign(context.Background(),
		[]RunSpec{budgetSpec()}, WithJobs(1), WithPointMemBudget(1024))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("tiny budget did not fail the point: %+v", results)
	}
	if !strings.Contains(results[0].Err.Error(), "MemBudgetBytes") {
		t.Errorf("point error %q does not name MemBudgetBytes", results[0].Err)
	}

	// The table-less path under a campaign: the shared-table cache compiles
	// under the point budget too, refuses, and the point reports the table.
	results, err = RunCampaign(context.Background(),
		[]RunSpec{tableBustsBudget(), compactFitsBudget()}, WithJobs(1), WithPointMemBudget(tableBudget))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	checkTableBudgetError(t, results[0].Err)
	if results[1].Err != nil {
		t.Errorf("the N=4096 SN point under the same budget: %v", results[1].Err)
	}
}

// TestScalePresets pins the 10k/100k Table 4 siblings added for the scale-*
// family: the presets resolve and their node counts land in the declared
// regimes.
func TestScalePresets(t *testing.T) {
	for name, want := range map[string]int{
		"cm10k": 10080, "t2d10k": 10080, "fbf10k": 10080,
		"cm100k": 100352, "t2d100k": 100352, "fbf100k": 100352,
	} {
		ns, err := ResolvePreset(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if n := ns.X * ns.Y * ns.Conc; n != want {
			t.Errorf("%s: %d nodes, want %d", name, n, want)
		}
	}
}
