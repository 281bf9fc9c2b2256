package sim_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// The workloads fixture pins the simulator's full Result for the composable
// workload layer: one bursty (OnOff) run, one hotspot-overlay run, one
// bimodal-sizer run, and one request-reply closed-loop run. It complements
// testdata/golden_results.json (which pins the pre-decomposition Bernoulli
// path and must never change): together they freeze both halves of the
// Pattern x Process x Sizer refactor, so an engine or traffic change that
// shifts any new workload's metrics fails loudly.
//
// Regenerate (only for an intentional, documented behaviour change):
//
//	go test ./internal/sim -run TestGoldenWorkloads -update-workloads
var updateWorkloads = flag.Bool("update-workloads", false, "rewrite the workloads golden fixture")

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
// fixture, via JSON like TestGoldenMetrics, so any metric drift fails.
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

	if *updateWorkloads {
		writeGolden(t, workloadsPath, got)
		return
	}

	data, err := os.ReadFile(workloadsPath)
	if err != nil {
		t.Fatalf("read workloads fixture (generate with -update-workloads): %v", err)
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
			t.Errorf("%s: Result drifted from workloads fixture\n got %+v\nwant %+v", name, g, w)
		}
	}
	if len(got) == len(workloadSources(net.N())) {
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("fixture case %s no longer produced", name)
			}
		}
	}
}
