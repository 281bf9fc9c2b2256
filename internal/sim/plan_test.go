package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/slimnoc"
)

// planPresets are the enumerable presets up to N = 1296: Table 4's
// networks, the N = 54 set, and Slim NoCs in every layout. scalePresets
// are the N = 10000 ones, which take seconds and run only without -short;
// the N = 100000 ones are left out, at 157 MB of route table each.
var (
	planPresets = []string{
		"cm3", "cm4", "t2d3", "t2d4", "fbf3", "fbf4", "pfbf3", "pfbf4",
		"cm9", "cm8", "t2d9", "t2d8", "fbf9", "fbf8", "pfbf9", "pfbf8",
		"t2d54", "fbf54", "pfbf54",
		"sn_basic_54", "sn_subgr_54", "sn_rand_200", "sn_basic_200", "sn_gr_200", "sn_subgr_200",
		"sn_gr_1296", "sn_subgr_1296",
	}
	scalePresets = []string{"cm10k", "t2d10k", "fbf10k", "sn_subgr_10000"}
)

// TestEngineAllocatesThePlan pins that a run is priced as it was simulated:
// for every preset, buffer scheme, hop factor H in {1, 2, 9} and 1-4 VCs,
// plus an edge-capacity override and a 40-flit central buffer, the flit
// storage sim.New allocates (input buffers, elastic pipeline slots, central
// buffers) and its VC count equal what the power model prices for the
// spec's buffer plan.
func TestEngineAllocatesThePlan(t *testing.T) {
	presets := planPresets
	if !testing.Short() {
		presets = append(presets, scalePresets...)
	}
	var bufferings []slimnoc.BufferingSpec
	for _, scheme := range []string{"eb", "eb-large", "eb-var", "el", "cbr"} {
		bufferings = append(bufferings, slimnoc.BufferingSpec{Scheme: scheme})
	}
	bufferings = append(bufferings,
		slimnoc.BufferingSpec{Scheme: "eb", EdgeCap: 3},
		slimnoc.BufferingSpec{Scheme: "cbr", CBCap: 40})
	for _, name := range presets {
		net, kind, err := slimnoc.BuildNetwork(slimnoc.NetworkSpec{Preset: name})
		if err != nil {
			t.Fatal(err)
		}
		src := &traffic.Synthetic{N: net.N(), Pattern: traffic.Uniform{N: net.N()}}
		for vcs := 1; vcs <= 4; vcs++ {
			tab, err := slimnoc.CompileRouteTable(net, kind, "minimal", vcs)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range []int{1, 2, 9} {
				for _, b := range bufferings {
					spec := slimnoc.RunSpec{HopFactor: h, Routing: slimnoc.RoutingSpec{VCs: vcs}, Buffering: b}
					plan, err := spec.BufferPlan()
					if err != nil {
						t.Fatal(err)
					}
					s, err := sim.New(sim.Config{Net: net, Table: tab, Buffers: plan, Traffic: src})
					if err != nil {
						t.Fatal(err)
					}
					flits, engineVCs := s.StorageFlits()
					priced := power.Buffers(net, plan, 128)
					if priced.TotalFlits != float64(flits) || priced.VCs != engineVCs {
						t.Fatalf("%s %s: engine allocates %d flits over %d VCs, priced %v flits over %d VCs",
							name, planLabel(b, h, vcs), flits, engineVCs, priced.TotalFlits, priced.VCs)
					}
				}
			}
		}
	}
}

func planLabel(b slimnoc.BufferingSpec, h, vcs int) string {
	return fmt.Sprintf("%s edge_cap=%d cb_cap=%d H=%d VCs=%d", b.Scheme, b.EdgeCap, b.CBCap, h, vcs)
}
