package sim_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// TestGoldenMetricsCompactTable replays the static-routing golden cases with
// a shared route table supplied in place of the path builder, against the
// same unmodified fixture: a table compiled once outside the engine must
// route exactly like the one New compiles from the builder, end to end —
// at the serial domain count and split across domains. (Adaptive cases
// choose their routes per packet; the base golden tests cover them.)
func TestGoldenMetricsCompactTable(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden fixture: %v", err)
	}
	var want map[string]sim.Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCases() {
		if c.Policy != "" {
			continue
		}
		c := c
		t.Run(c.Name, func(t *testing.T) {
			w, ok := want[c.Name]
			if !ok {
				t.Fatalf("case %s missing from fixture", c.Name)
			}
			for _, jobs := range []int{0, 4} {
				net := snNetwork(t, 5, 4, core.LayoutSubgroup)
				tab, err := routing.CompileCompact(net, c.VCs)
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.Config{
					Net:     net,
					Table:   tab,
					Buffers: core.Buffers{VCs: c.VCs, Scheme: c.Scheme, H: c.H},
					Traffic: &traffic.Synthetic{N: net.N(), Rate: c.Rate, PacketFlits: 6,
						Pattern: traffic.Uniform{N: net.N()}},
					Seed:          c.Seed,
					EngineJobs:    jobs,
					WarmupCycles:  1000,
					MeasureCycles: 3000,
					DrainCycles:   3000,
				}
				_, got := runCfg(t, cfg)
				if got != w {
					t.Errorf("jobs=%d: compact-table Result drifted from golden fixture\n got %+v\nwant %+v", jobs, got, w)
				}
			}
		})
	}
}

// TestGoldenWorkloadsCompactTable replays the composable-workload fixture
// (bursty, MMPP, hotspot, bimodal, request-reply) with a compact route table:
// workload generation is orthogonal to route storage, so the fixture bytes
// must be reproduced exactly.
func TestGoldenWorkloadsCompactTable(t *testing.T) {
	data, err := os.ReadFile(workloadsPath)
	if err != nil {
		t.Fatalf("read workloads fixture: %v", err)
	}
	var want map[string]sim.Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	tab, err := routing.CompileCompact(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range workloadSources(net.N()) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			w, ok := want[name]
			if !ok {
				t.Fatalf("case %s missing from fixture", name)
			}
			cfg := sim.Config{
				Net:           net,
				Table:         tab,
				Buffers:       core.Buffers{VCs: 2, Scheme: core.EB},
				Traffic:       src,
				Seed:          107,
				WarmupCycles:  1000,
				MeasureCycles: 3000,
				DrainCycles:   3000,
			}
			_, got := runCfg(t, cfg)
			if got != w {
				t.Errorf("compact-table Result drifted from workloads fixture\n got %+v\nwant %+v", got, w)
			}
		})
	}
}

// TestGoldenIdleCompactTable replays the idle-skip fixture with a compact
// route table, calendar active: route reconstruction happens at enqueue
// time, so it must not disturb the calendar's exact-skip bookkeeping.
func TestGoldenIdleCompactTable(t *testing.T) {
	data, err := os.ReadFile(goldenIdlePath)
	if err != nil {
		t.Fatalf("read idle fixture: %v", err)
	}
	var want map[string]sim.Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenIdleCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			w, ok := want[c.Name]
			if !ok {
				t.Fatalf("case %s missing from fixture", c.Name)
			}
			net := snNetwork(t, 5, 4, core.LayoutSubgroup)
			tab, err := routing.CompileCompact(net, 2)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{
				Net:           net,
				Table:         tab,
				Buffers:       core.Buffers{VCs: 2, Scheme: c.Scheme, H: 1},
				Traffic:       idleSource(t, net.N(), c.Shape),
				Seed:          107,
				WarmupCycles:  500,
				MeasureCycles: 1500,
				DrainCycles:   3000,
			}
			_, got := runCfg(t, cfg)
			if got != w {
				t.Errorf("compact-table Result drifted from idle fixture\n got %+v\nwant %+v", got, w)
			}
		})
	}
}
