package slimnoc

import (
	"context"
	"path/filepath"
	"testing"

	"repro/slimnoc/store"
)

// satSpec returns the calibrated search used across the saturation tests:
// t2d54 under uniform random traffic saturates between 0.20 and 0.25
// flits/node/cycle at these cycle counts.
func satSpec() SaturationSpec {
	return SaturationSpec{
		Name: "satsearch",
		Base: RunSpec{
			Network: NetworkSpec{Preset: "t2d54"},
			Traffic: TrafficSpec{Pattern: "rnd"},
			Sim:     SimSpec{WarmupCycles: 300, MeasureCycles: 1000, DrainCycles: 2000, Seed: 5},
		},
		MinLoad:       0.05,
		MaxLoad:       0.45,
		Step:          0.05,
		LatencyFactor: 3,
	}
}

// TestSaturationSearch pins the search against ground truth: a brute-force
// scan of the full load grid, using the identical saturation predicate, must
// agree with the binary search to within one probe step — and by grid
// construction they agree exactly on the last unsaturated grid load.
func TestSaturationSearch(t *testing.T) {
	spec := satSpec()
	res, err := NewCampaign(WithJobs(1)).SaturationSearch(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.AtMin || res.AtMax {
		t.Fatalf("search hit the bracket edge: %+v", res)
	}
	if len(res.Probes) == 0 {
		t.Fatal("search executed no probes")
	}

	// Brute force: run every grid load and find the last one below the
	// search's own threshold.
	grid := spec.grid()
	var points []RunSpec
	for _, load := range grid {
		p := spec.Base
		p.Traffic.Rate = load
		points = append(points, p)
	}
	scan, err := NewCampaign(WithJobs(2)).Run(t.Context(), points)
	if err != nil {
		t.Fatal(err)
	}
	bruteSat, seen := 0.0, false
	for i, p := range scan {
		if p.Err != nil {
			t.Fatalf("grid point %d: %v", i, p.Err)
		}
		if !saturates(p.Result.Metrics, res.Threshold) {
			bruteSat, seen = grid[i], true
		} else {
			break // the curve is monotone in this regime
		}
	}
	if !seen {
		t.Fatal("grid scan found no unsaturated load; recalibrate the test network")
	}
	if diff := res.SaturationLoad - bruteSat; diff > spec.Step+1e-12 || diff < -spec.Step-1e-12 {
		t.Errorf("search found %.3f, brute-force grid found %.3f (> one step %g apart)",
			res.SaturationLoad, bruteSat, spec.Step)
	}
	// The binary search visits grid points only, so on a monotone curve the
	// two answers coincide exactly.
	if res.SaturationLoad != bruteSat {
		t.Errorf("search found %.3f, want the grid scan's %.3f exactly", res.SaturationLoad, bruteSat)
	}
	// Far fewer probes than the grid: that is the point of the search.
	if len(res.Probes) >= len(grid) {
		t.Errorf("search used %d probes for a %d-point grid", len(res.Probes), len(grid))
	}
}

// TestSaturationSearchStoreResume pins the resumability contract: the same
// search against a warm store simulates nothing (every probe served cached)
// and returns the identical result.
func TestSaturationSearchStoreResume(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	spec := satSpec()
	cold, err := NewCampaign(WithJobs(1), WithStore(st)).SaturationSearch(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range cold.Probes {
		if p.Cached {
			t.Errorf("cold probe %d served from an empty store", i)
		}
	}

	warm, err := NewCampaign(WithJobs(1), WithStore(st)).SaturationSearch(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if warm.SaturationLoad != cold.SaturationLoad || warm.Threshold != cold.Threshold {
		t.Errorf("warm search (%.3f, thr %.2f) differs from cold (%.3f, thr %.2f)",
			warm.SaturationLoad, warm.Threshold, cold.SaturationLoad, cold.Threshold)
	}
	if len(warm.Probes) != len(cold.Probes) {
		t.Fatalf("warm search ran %d probes, cold ran %d", len(warm.Probes), len(cold.Probes))
	}
	for i, p := range warm.Probes {
		if !p.Cached {
			t.Errorf("warm probe %d (load %g) simulated instead of serving the store",
				i, p.Spec.Traffic.Rate)
		}
	}

	// Cross-mode reuse: a grid sweep over the same loads is served from the
	// search's store entries for every load the search probed.
	grid := spec.grid()
	var points []RunSpec
	for _, load := range grid {
		p := spec.Base
		p.Traffic.Rate = load
		points = append(points, p)
	}
	scan, err := NewCampaign(WithJobs(1), WithStore(st)).Run(t.Context(), points)
	if err != nil {
		t.Fatal(err)
	}
	probed := map[float64]bool{}
	for _, p := range cold.Probes {
		probed[p.Spec.Traffic.Rate] = true
	}
	hits := 0
	for i, p := range scan {
		if p.Err != nil {
			t.Fatalf("grid point %d: %v", i, p.Err)
		}
		if probed[grid[i]] && !p.Cached {
			t.Errorf("grid load %g was probed by the search but simulated again", grid[i])
		}
		if p.Cached {
			hits++
		}
	}
	if hits != len(probed) {
		t.Errorf("grid scan got %d store hits, want %d (one per distinct probe)", hits, len(probed))
	}
}

// TestSaturationSpecValidate covers the search spec's rejection paths.
func TestSaturationSpecValidate(t *testing.T) {
	ok := satSpec()
	if err := ok.validate(); err != nil {
		t.Fatalf("calibrated spec invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*SaturationSpec)
	}{
		{"inverted bracket", func(s *SaturationSpec) { s.MinLoad, s.MaxLoad = 0.4, 0.2 }},
		{"step too large", func(s *SaturationSpec) { s.Step = 1 }},
		{"factor below 1", func(s *SaturationSpec) { s.LatencyFactor = 0.5 }},
		{"closed loop", func(s *SaturationSpec) { s.Base.Traffic.Process = "reqreply" }},
		{"trace workload", func(s *SaturationSpec) {
			s.Base.Traffic = TrafficSpec{Pattern: "trace", Trace: "fft"}
		}},
		{"bad base", func(s *SaturationSpec) { s.Base.Network.Preset = "no_such_net" }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := satSpec()
			c.mutate(&s)
			if err := s.validate(); err == nil {
				t.Error("invalid spec accepted")
			}
		})
	}
	// An invalid spec must also fail the search itself, with no probes run.
	bad := satSpec()
	bad.Base.Traffic.Process = "reqreply"
	res, err := NewCampaign().SaturationSearch(context.Background(), bad)
	if err == nil {
		t.Error("search accepted a closed-loop base")
	}
	if len(res.Probes) != 0 {
		t.Errorf("failed search still ran %d probes", len(res.Probes))
	}
}

// TestSaturationGrid pins the grid construction the store-key sharing
// depends on: inclusive endpoints, Step spacing, and run-to-run float64
// reproducibility (two Grid calls must return bit-identical values, since
// point keys hash the load bytes).
func TestSaturationGrid(t *testing.T) {
	s := SaturationSpec{MinLoad: 0.1, MaxLoad: 0.3, Step: 0.05}
	got := s.grid()
	if len(got) != 5 {
		t.Fatalf("grid %v, want 5 points", got)
	}
	if got[0] != 0.1 {
		t.Errorf("grid starts at %v, want MinLoad", got[0])
	}
	for i := 1; i < len(got); i++ {
		if d := got[i] - got[i-1]; d < 0.05-1e-12 || d > 0.05+1e-12 {
			t.Errorf("grid spacing [%d] = %v, want Step", i, d)
		}
	}
	if last := got[len(got)-1]; last < 0.3-1e-9 || last > 0.3+1e-9 {
		t.Errorf("grid ends at %v, want MaxLoad", last)
	}
	again := s.grid()
	for i := range got {
		if got[i] != again[i] {
			t.Errorf("grid[%d] not reproducible: %v vs %v", i, got[i], again[i])
		}
	}
	if g := (SaturationSpec{}).grid(); len(g) < 2 {
		t.Errorf("default grid too small: %v", g)
	}
}
