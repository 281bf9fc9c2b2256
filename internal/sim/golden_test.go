package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// The golden fixture pins the simulator's Result — every field — for fixed
// seeds across all three buffer schemes, both SMART settings, and the three
// adaptive policies. It was generated from the pre-active-set cycle-scan
// engine and must never be regenerated casually: engine optimisations (route
// tables, freelists, timing wheels, dirty lists) are required to be
// byte-identical re-implementations of the original semantics, and this test
// is the proof. Re-pin (only with an EngineVersion bump) with
// GOLDEN_UPDATE=1 go test ./...
const goldenPath = "testdata/golden_results.json"

// goldenCase is one pinned configuration. All cases run on the SN q=5 p=4
// subgroup network (50 routers, 200 nodes) so fixture generation stays fast.
type goldenCase struct {
	Name   string
	Scheme core.Scheme
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
		scheme core.Scheme
	}{
		{"eb", core.EB},
		{"cbr", core.CBR},
		{"el", core.EL},
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
		goldenCase{Name: "ugal_h1_r0.10", Scheme: core.EB, H: 1, Rate: 0.10, VCs: 4, Policy: "ugal-l", Seed: 103},
		goldenCase{Name: "ugalg_h1_r0.10", Scheme: core.EB, H: 1, Rate: 0.10, VCs: 4, Policy: "ugal-g", Seed: 103},
		goldenCase{Name: "ugalg_cbr_h9_r0.24", Scheme: core.CBR, H: 9, Rate: 0.24, VCs: 4, Policy: "ugal-g", Seed: 103},
		goldenCase{Name: "minadapt_h1_r0.10", Scheme: core.EB, H: 1, Rate: 0.10, VCs: 2, Policy: "min-adapt", Seed: 103},
		goldenCase{Name: "minadapt_el_h9_r0.24", Scheme: core.EL, H: 9, Rate: 0.24, VCs: 2, Policy: "min-adapt", Seed: 103},
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
		Net:     net,
		Table:   minTable(t, net, c.VCs),
		Buffers: core.Buffers{VCs: c.VCs, Scheme: c.Scheme, H: c.H},
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

// TestGoldenMetrics compares every case's full Result against the fixture:
// any drift — latency, throughput, counts, flags — fails loudly.
func TestGoldenMetrics(t *testing.T) {
	testGoldenMetrics(t, 0)
}

// TestGoldenMetricsParallel re-runs every golden case with the engine split
// across 4 spatial domains (EngineJobs: 4) and compares against the same,
// unmodified fixture: domain-parallel stepping is required to be a byte-
// identical re-implementation of the serial engine the fixture was
// generated from, exactly like every previous engine optimisation.
func TestGoldenMetricsParallel(t *testing.T) {
	testGoldenMetrics(t, 4)
}

func testGoldenMetrics(t *testing.T, jobs int) {
	got := make(map[string]sim.Result)
	for _, c := range goldenCases() {
		t.Run(c.Name, func(t *testing.T) {
			got[c.Name] = runGoldenCase(t, c, jobs)
		})
	}
	golden.Check(t, goldenPath, sim.EngineVersion, got)
}
