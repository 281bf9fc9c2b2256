package sim_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// The golden fixture pins the simulator's Result — every field — for fixed
// seeds across all three buffer schemes, both SMART settings, and the three
// adaptive policies. It was generated from the pre-active-set cycle-scan
// engine and must never be regenerated casually: engine optimisations (route
// tables, freelists, timing wheels, dirty lists) are required to be
// byte-identical re-implementations of the original semantics, and this test
// is the proof.
//
// Regenerate (only for an intentional, documented behaviour change):
//
//	go test ./internal/sim -run TestGoldenMetrics -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden metrics fixture")

const goldenPath = "testdata/golden_results.json"

// goldenCase is one pinned configuration. All cases run on the SN q=5 p=4
// subgroup network (50 routers, 200 nodes) so fixture generation stays fast.
type goldenCase struct {
	Name   string
	Scheme sim.BufferScheme
	H      int
	Rate   float64
	VCs    int
	Policy string // adaptive policy (adaptivePolicy's names); "" routes static minimal
	Seed   int64
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, sc := range []struct {
		tag    string
		scheme sim.BufferScheme
	}{
		{"eb", sim.EdgeBuffers},
		{"cbr", sim.CentralBuffer},
		{"el", sim.ElasticLinks},
	} {
		for _, h := range []int{1, 9} {
			for _, rate := range []float64{0.05, 0.24} {
				cases = append(cases, goldenCase{
					Name:   fmt.Sprintf("%s_h%d_r%.2f", sc.tag, h, rate),
					Scheme: sc.scheme,
					H:      h,
					Rate:   rate,
					VCs:    2,
					Seed:   101,
				})
			}
		}
	}
	return append(cases,
		goldenCase{Name: "ugal_h1_r0.10", Scheme: sim.EdgeBuffers, H: 1, Rate: 0.10, VCs: 4, Policy: "ugal-l", Seed: 103},
		goldenCase{Name: "ugalg_h1_r0.10", Scheme: sim.EdgeBuffers, H: 1, Rate: 0.10, VCs: 4, Policy: "ugal-g", Seed: 103},
		goldenCase{Name: "ugalg_cbr_h9_r0.24", Scheme: sim.CentralBuffer, H: 9, Rate: 0.24, VCs: 4, Policy: "ugal-g", Seed: 103},
		goldenCase{Name: "minadapt_h1_r0.10", Scheme: sim.EdgeBuffers, H: 1, Rate: 0.10, VCs: 2, Policy: "min-adapt", Seed: 103},
		goldenCase{Name: "minadapt_el_h9_r0.24", Scheme: sim.ElasticLinks, H: 9, Rate: 0.24, VCs: 2, Policy: "min-adapt", Seed: 103},
	)
}

// adaptivePolicy returns the named adaptive policy (slimnoc's routing
// names), or nil for "", static routing.
func adaptivePolicy(name string) sim.AdaptivePolicy {
	switch name {
	case "":
		return nil
	case "ugal-l":
		return &sim.UGAL{Global: false}
	case "ugal-g":
		return &sim.UGAL{Global: true}
	case "min-adapt":
		return &sim.MinAdaptive{}
	}
	panic("unknown adaptive policy " + name)
}

func runGoldenCase(t *testing.T, c goldenCase, jobs int) sim.Result {
	t.Helper()
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	cfg := sim.Config{
		Net:    net,
		Table:  minTable(t, net, c.VCs),
		VCs:    c.VCs,
		Scheme: c.Scheme,
		H:      c.H,
		Traffic: &traffic.Synthetic{N: net.N(), Rate: c.Rate, PacketFlits: 6,
			Pattern: traffic.Uniform{N: net.N()}},
		Seed:          c.Seed,
		EngineJobs:    jobs,
		WarmupCycles:  1000,
		MeasureCycles: 3000,
		DrainCycles:   3000,
	}
	cfg.Adaptive = adaptivePolicy(c.Policy)
	_, res := runCfg(t, cfg)
	return res
}

// TestGoldenMetrics compares every case's full Result against the fixture.
// Comparison goes through JSON with all fields marshalled, so any drift —
// latency, throughput, counts, flags — fails loudly.
func TestGoldenMetrics(t *testing.T) {
	got := make(map[string]sim.Result)
	for _, c := range goldenCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			got[c.Name] = runGoldenCase(t, c, 0)
		})
	}

	if *updateGolden {
		writeGolden(t, goldenPath, got)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden fixture (generate with -update-golden): %v", err)
	}
	var want map[string]sim.Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("case %s missing from fixture; regenerate intentionally", name)
			continue
		}
		if g != w {
			t.Errorf("%s: Result drifted from golden fixture\n got %+v\nwant %+v", name, g, w)
		}
	}
	// The completeness check only applies to an unfiltered run: under a
	// -run subtest filter `got` legitimately holds a subset of the cases.
	if len(got) == len(goldenCases()) {
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("fixture case %s no longer produced", name)
			}
		}
	}
}

// TestGoldenMetricsParallel re-runs every golden case with the engine split
// across 4 spatial domains (EngineJobs: 4) and compares against the same,
// unmodified fixture: domain-parallel stepping is required to be a byte-
// identical re-implementation of the serial engine the fixture was
// generated from, exactly like every previous engine optimisation.
func TestGoldenMetricsParallel(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden fixture (generate with -update-golden): %v", err)
	}
	var want map[string]sim.Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			got := runGoldenCase(t, c, 4)
			w, ok := want[c.Name]
			if !ok {
				t.Fatalf("case %s missing from fixture", c.Name)
			}
			if got != w {
				t.Errorf("%s: 4-domain Result drifted from golden fixture\n got %+v\nwant %+v", c.Name, got, w)
			}
		})
	}
}
