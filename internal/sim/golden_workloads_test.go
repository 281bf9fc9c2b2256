package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// The workloads fixture pins the simulator's full Result for the composable
// workload layer: one bursty (OnOff) run, one hotspot-overlay run, one
// bimodal-sizer run, and one request-reply closed-loop run. It complements
// testdata/golden_results.json (which pins the pre-decomposition Bernoulli
// path and must never change): together they freeze both halves of the
// Pattern x Process x Sizer refactor, so an engine or traffic change that
// shifts any new workload's metrics fails loudly. Re-pin (only with an
// EngineVersion bump) with GOLDEN_UPDATE=1 go test ./...

const workloadsPath = "testdata/golden_workloads.json"

// workloadSources builds the pinned sources for a network of n nodes. All
// runs share the golden network (SN q=5 p=4 subgroup) and seed so the
// fixture isolates the workload axis.
func workloadSources(n int) map[string]sim.Source {
	return map[string]sim.Source{
		"burst": &traffic.Synthetic{N: n, Rate: 0.06, PacketFlits: 6,
			Pattern: traffic.Uniform{N: n},
			Process: traffic.NewOnOff(n, 8, 0.25)},
		"mmpp": &traffic.Synthetic{N: n, Rate: 0.06, PacketFlits: 6,
			Pattern: traffic.Uniform{N: n},
			Process: traffic.NewModulated(1.8, 100)},
		"hotspot": &traffic.Synthetic{N: n, Rate: 0.06, PacketFlits: 6,
			Pattern: traffic.Hotspot{Frac: 0.2, K: 4, N: n, Base: traffic.Uniform{N: n}}},
		"bimodal": &traffic.Synthetic{N: n, Rate: 0.06, PacketFlits: 6,
			Pattern: traffic.Uniform{N: n},
			Sizer:   traffic.Bimodal{Short: 2, Long: 6, ShortFrac: 0.5}},
		"reqreply": &traffic.ReqReply{N: n, Window: 4, ReqFlits: 2, ReplyFlits: 6,
			Pattern: traffic.Uniform{N: n}},
	}
}

// TestGoldenWorkloads compares every workload case's full Result against the
// fixture, like TestGoldenMetrics, so any metric drift fails.
func TestGoldenWorkloads(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	got := make(map[string]sim.Result)
	for name, src := range workloadSources(net.N()) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			cfg := sim.Config{
				Net:           net,
				Table:         minTable(t, net, 2),
				Buffers:       core.Buffers{VCs: 2, Scheme: core.EB},
				Traffic:       src,
				Seed:          107,
				WarmupCycles:  1000,
				MeasureCycles: 3000,
				DrainCycles:   3000,
			}
			_, res := runCfg(t, cfg)
			if res.Delivered == 0 {
				t.Fatal("workload delivered nothing")
			}
			got[name] = res
		})
	}

	golden.Check(t, workloadsPath, sim.EngineVersion, got)
}
