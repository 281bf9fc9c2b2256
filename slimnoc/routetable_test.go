package slimnoc

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
)

// TestRunnerWithRouteTable pins that a precompiled shared table changes
// nothing about the results: metrics are byte-identical to a run that
// builds its own routes.
func TestRunnerWithRouteTable(t *testing.T) {
	net, kind, err := BuildNetwork(NetworkSpec{Preset: "sn_subgr_200"})
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.06},
		Sim:     SimSpec{WarmupCycles: 200, MeasureCycles: 600, DrainCycles: 1200, Seed: 5},
	}.Normalized()
	tab, err := CompileRouteTable(net, kind, spec.Routing.Algorithm, spec.Routing.VCs)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...Option) string {
		t.Helper()
		res, err := Run(context.Background(), spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := json.Marshal(res.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		return string(m)
	}
	plain := run(WithNetwork(net, kind))
	shared := run(WithNetwork(net, kind), WithRouteTable(tab))
	if plain != shared {
		t.Errorf("shared route table changed metrics:\nplain  %s\nshared %s", plain, shared)
	}
}

// TestRouteTableNetworkMismatch: a table compiled for one network must not
// silently route a different one — the simulator rejects mismatched
// dimensions, and a campaign point whose options swap the network drops
// the cached table and recompiles instead of failing.
func TestRouteTableNetworkMismatch(t *testing.T) {
	netA, kindA, err := BuildNetwork(NetworkSpec{Preset: "sn_subgr_200"})
	if err != nil {
		t.Fatal(err)
	}
	tabA, err := CompileRouteTable(netA, kindA, "auto", 2)
	if err != nil {
		t.Fatal(err)
	}
	netB, kindB, err := BuildNetwork(NetworkSpec{Preset: "t2d54"})
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.05},
		Sim:     SimSpec{WarmupCycles: 100, MeasureCycles: 200, DrainCycles: 400, Seed: 7},
	}
	if _, err := Run(t.Context(), spec, WithNetwork(netB, kindB), WithRouteTable(tabA)); err == nil {
		t.Fatal("running network B with a table compiled for network A must fail")
	}
	// The campaign path: the internal cache attaches a table for the
	// spec's network, then point options substitute another network. The
	// stale table must be dropped, not applied.
	spec.Network = NetworkSpec{Preset: "sn_subgr_200"}
	results, err := RunCampaign(t.Context(), []RunSpec{spec},
		WithJobs(1),
		WithPointOptions(func(int, RunSpec) []Option {
			return []Option{WithNetwork(netB, kindB)}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("network override alongside a cached table must recompile, got %v", results[0].Err)
	}
	if got := results[0].Result.Network.Name; got != netB.Name {
		t.Fatalf("point ran on %q, want the overriding network %q", got, netB.Name)
	}
}

// TestCompileRouteTableAdaptiveRejected: adaptive algorithms route per
// packet and must refuse compilation rather than freeze a misleading table.
func TestCompileRouteTableAdaptiveRejected(t *testing.T) {
	net, kind, err := BuildNetwork(NetworkSpec{Preset: "sn_subgr_200"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileRouteTable(net, kind, "ugal-l", 4); err == nil {
		t.Fatal("compiling an adaptive algorithm must fail")
	}
	if _, err := CompileRouteTable(net, kind, "no-such-algo", 2); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
}

// TestCampaignSharedRouteTableRace runs many concurrent simulations that
// all read one compiled route table — both the campaign's internal
// per-(network, routing, VCs) cache and an explicitly shared table via
// WithRouteTable. Under -race this pins the contract that compiled tables
// are immutable.
func TestCampaignSharedRouteTableRace(t *testing.T) {
	net, kind, err := BuildNetwork(NetworkSpec{Preset: "sn_subgr_200"})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := CompileRouteTable(net, kind, "auto", 2)
	if err != nil {
		t.Fatal(err)
	}
	var points []RunSpec
	for i := 0; i < 12; i++ {
		points = append(points, RunSpec{
			Network: NetworkSpec{Preset: "sn_subgr_200"},
			Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.02 + 0.005*float64(i)},
			Sim:     SimSpec{WarmupCycles: 100, MeasureCycles: 300, DrainCycles: 600, Seed: int64(i + 1)},
		})
	}
	// First half rides the campaign's internal table cache; second half
	// shares the explicitly compiled table.
	results, err := RunCampaign(t.Context(), points,
		WithJobs(runtime.NumCPU()),
		WithPointOptions(func(i int, _ RunSpec) []Option {
			if i%2 == 0 {
				return nil
			}
			return []Option{WithNetwork(net, kind), WithRouteTable(tab)}
		}))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range results {
		if p.Err != nil {
			t.Errorf("point %d: %v", i, p.Err)
		}
	}
}

// TestCompileRouteTableSelection pins the one selection policy: an eligible
// algorithm gets the dense table up to 64 MiB of exact interned size and the
// compact form above it, and the size the policy reads — the sweep's own
// census — is the size an independent BFS count gives, so the flip sits at
// the same networks as when a separate census pass made the call. The two
// SN sizes straddle the threshold (59 MiB / 81 MiB dense); minimal routing
// on the 10k-endpoint torus is the long-path case whose 19 MiB offset floor
// says "dense" while its real 300+ MiB says "compact".
func TestCompileRouteTableSelection(t *testing.T) {
	for _, c := range []struct {
		name        string
		ns          NetworkSpec
		algorithm   string
		wantCompact bool
	}{
		{"sn_q25", NetworkSpec{Topology: "sn", Q: 25, Conc: 4, Layout: "subgr"}, "auto", false},
		{"sn_q27", NetworkSpec{Topology: "sn", Q: 27, Conc: 4, Layout: "subgr"}, "auto", true},
		{"t2d10k_minimal", NetworkSpec{Preset: "t2d10k"}, "minimal", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, kind, err := BuildNetwork(c.ns)
			if err != nil {
				t.Fatal(err)
			}
			// The census as a pass of its own: 20 B per pair plus 10 B per hop.
			var hops int64
			dist, queue := make([]int32, net.Nr), make([]int32, 0, net.Nr)
			for dst := 0; dst < net.Nr; dst++ {
				for _, r := range net.BFS(dst, dist, queue) {
					hops += int64(dist[r])
				}
			}
			dense := 20*int64(net.Nr)*int64(net.Nr) + 10*hops
			if (dense > compactTableThreshold) != c.wantCompact {
				t.Fatalf("fixture: exact dense size %d B is on the wrong side of the threshold", dense)
			}
			tab, err := CompileRouteTable(net, kind, c.algorithm, 2)
			if err != nil {
				t.Fatal(err)
			}
			if tab.Compact() != c.wantCompact {
				t.Fatalf("Compact() = %v, want %v at %d dense bytes", tab.Compact(), c.wantCompact, dense)
			}
			if c.wantCompact {
				if got := tab.DenseBytes(); got != dense {
					t.Errorf("sweep census %d B, independent count %d B", got, dense)
				}
			} else if got := tab.MemBytes(); got != dense {
				t.Errorf("dense table holds %d B, census predicted %d B", got, dense)
			}
		})
	}
}

// TestCompileRouteTableAllocs caps the allocations of one compile on the
// N=512 SN: the sweep's table and scratch plus the seven dense arrays, each
// made once. The generic construction this replaced allocated twice per
// router pair (32k+ here); the ceiling leaves room for bookkeeping, none for
// anything per pair or per router.
func TestCompileRouteTableAllocs(t *testing.T) {
	net, kind, err := BuildNetwork(NetworkSpec{Topology: "sn", Q: 8, Conc: 4, Layout: "subgr"})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := CompileRouteTable(net, kind, "auto", 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 24 {
		t.Errorf("CompileRouteTable allocates %.0f times per call, want <= 24", allocs)
	}
}
