package slimnoc

import (
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/routing"
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
// silently route a different one — the simulator rejects a table compiled
// for another network, of another size or of the same size with links
// removed, and a campaign point whose options swap the network drops the
// cached table and recompiles instead of failing.
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
	damaged := netA.RemoveRandomLinks(0.1, 7)
	_, err = Run(t.Context(), spec, WithNetwork(damaged, kindA), WithRouteTable(tabA))
	if err == nil || !strings.Contains(err.Error(), "another network") {
		t.Fatalf("running a damaged network on the healthy network's table: err = %v, want a refusal naming another network", err)
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

// TestCompileRouteTableSelection pins the one table form: whatever the
// algorithm and the size, a compiled table is one next-hop byte per router
// pair — from the smallest SN to the sizes that used to straddle a
// dense/compact threshold (q = 25, 27), the long-path 10k-endpoint torus
// under "minimal", and grid "auto" (DOR, VCs by geometry) at 54 and 10k
// endpoints.
func TestCompileRouteTableSelection(t *testing.T) {
	for _, c := range []struct {
		name      string
		ns        NetworkSpec
		algorithm string
	}{
		{"sn_q5", NetworkSpec{Topology: "sn", Q: 5, Conc: 4, Layout: "subgr"}, "auto"},
		{"sn_q25", NetworkSpec{Topology: "sn", Q: 25, Conc: 4, Layout: "subgr"}, "auto"},
		{"sn_q27", NetworkSpec{Topology: "sn", Q: 27, Conc: 4, Layout: "subgr"}, "auto"},
		{"t2d10k_minimal", NetworkSpec{Preset: "t2d10k"}, "minimal"},
		{"t2d54_auto", NetworkSpec{Preset: "t2d54"}, "auto"},
		{"t2d10k_auto", NetworkSpec{Preset: "t2d10k"}, "auto"},
		{"cm10k_auto", NetworkSpec{Preset: "cm10k"}, "auto"},
		{"fbf10k_auto", NetworkSpec{Preset: "fbf10k"}, "auto"},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, kind, err := BuildNetwork(c.ns)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := CompileRouteTable(net, kind, c.algorithm, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got, pairs := tab.MemBytes(), int64(net.Nr)*int64(net.Nr); got != pairs {
				t.Errorf("table holds %d B, want one per pair (%d)", got, pairs)
			}
		})
	}
}

// TestCompactTableMatchesBFSOnPresets holds the sweep-built table against the
// scalar construction it replaced on every registered preset (and the SN
// sizes the figures use) of up to 1300 routers: for each pair the first
// next-hop word carries the port of the first neighbour, in adjacency order,
// that one BFS from the destination puts a hop closer; and the network's
// memoized diameter is the largest BFS distance.
func TestCompactTableMatchesBFSOnPresets(t *testing.T) {
	for _, name := range append(Presets(), "sn_subgr_200", "sn_gr_1296", "sn_subgr_10000") {
		net, _, err := BuildNetwork(NetworkSpec{Preset: name})
		if err != nil {
			t.Fatal(err)
		}
		if net.Nr > 1300 || (testing.Short() && net.Nr > 300) {
			continue
		}
		tab, err := routing.CompileCompact(net, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diam := int32(0)
		var words []uint32
		dist, queue := make([]int32, net.Nr), make([]int32, 0, net.Nr)
		for dst := 0; dst < net.Nr; dst++ {
			net.BFS(dst, dist, queue)
			for r, adj := range net.Adj {
				diam = max(diam, dist[r])
				if r == dst {
					continue
				}
				port := slices.IndexFunc(adj, func(v int) bool { return dist[v] == dist[r]-1 })
				words = tab.AppendNextWords(words[:0], r, dst)
				if got := int(words[0] >> 16); got != port || len(words) != int(dist[r])+1 {
					t.Fatalf("%s %d->%d: table leaves by port %d on a %d-hop route, BFS by port %d on %d hops", name, r, dst, got, len(words)-1, port, dist[r])
				}
			}
		}
		if got := net.Diameter(); got != int(diam) {
			t.Errorf("%s: Diameter() = %d, BFS says %d", name, got, diam)
		}
	}
}

// TestGridTablesMatchBuilders pins that the compile paths agree on every
// registered preset (and the SN sizes the figures use) of up to 1300
// routers: the "auto" table Run compiles (CompileRouteTable),
// routing.NewTable, and routing.Compile of the builder NewRoutingFor picks
// walk the same next-hop words for every pair — so the same bytes under the
// same VC rule — at 1, 2, 4 and 8 VCs (from 2 where the builder needs it).
// The builders' own routes are checked pair by pair in internal/routing
// (TestGridTablesMatchRoute on the same grid shapes, the scalar-BFS oracle
// for generic minimal routing). Under -short it covers the presets of at
// most 300 routers.
func TestGridTablesMatchBuilders(t *testing.T) {
	for _, name := range append(Presets(), "sn_subgr_200", "sn_gr_1296") {
		net, kind, err := BuildNetwork(NetworkSpec{Preset: name})
		if err != nil {
			t.Fatal(err)
		}
		if net.Nr > 1300 || (testing.Short() && net.Nr > 300) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			for _, vcs := range []int{1, 2, 4, 8} {
				if vcs == 1 && (kind.Class == ClassTorus || kind.Class == ClassPFBF) {
					continue
				}
				auto, err := CompileRouteTable(net, kind, "auto", vcs)
				if err != nil {
					t.Fatal(err)
				}
				tab, err := routing.NewTable(net, kind, vcs)
				if err != nil {
					t.Fatal(err)
				}
				pb, err := routing.NewRoutingFor(net, kind, vcs)
				if err != nil {
					t.Fatal(err)
				}
				compiled, err := routing.Compile(net.Nr, pb)
				if err != nil {
					t.Fatal(err)
				}
				var want, got []uint32
				for src := 0; src < net.Nr; src++ {
					for dst := 0; dst < net.Nr; dst++ {
						want = auto.AppendNextWords(want[:0], src, dst)
						for i, other := range []*RouteTable{tab, compiled} {
							if got = other.AppendNextWords(got[:0], src, dst); !slices.Equal(got, want) {
								t.Fatalf("vcs=%d %d->%d: %s walks %#x, CompileRouteTable %#x", vcs, src, dst, [...]string{"NewTable", "Compile"}[i], got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestCompileRouteTableAllocs caps the allocations of one compile on the
// N=512 SN: the table, the sweep's scratch and bookkeeping. The generic
// construction allocates twice per router pair (32k+ here); the ceiling
// leaves no room for anything per pair or per router.
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
	if allocs > 8 {
		t.Errorf("CompileRouteTable allocates %.0f times per call, want <= 8", allocs)
	}
}
