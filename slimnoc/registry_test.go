package slimnoc

import (
	"strings"
	"testing"

	"repro/internal/routing"
)

// TestTopologyRegistryComplete builds every registered topology from its
// example spec and validates the resulting network.
func TestTopologyRegistryComplete(t *testing.T) {
	names := Topologies()
	if len(names) < 5 {
		t.Fatalf("expected at least 5 topologies, have %v", names)
	}
	for _, name := range names {
		e, ok := TopologyByName(name)
		if !ok {
			t.Errorf("%s: listed but not resolvable", name)
			continue
		}
		if e.Section == "" {
			t.Errorf("%s: no paper section recorded", name)
		}
		if e.Example.Topology != name {
			t.Errorf("%s: example names topology %q", name, e.Example.Topology)
		}
		net, _, err := BuildNetwork(e.Example)
		if err != nil {
			t.Errorf("%s: example does not build: %v", name, err)
			continue
		}
		if err := net.Validate(); err != nil {
			t.Errorf("%s: invalid network: %v", name, err)
		}
	}
}

// TestPresetsResolveAndBuild checks every static preset plus the dynamic
// Slim NoC forms.
func TestPresetsResolveAndBuild(t *testing.T) {
	names := append(Presets(), "sn_basic_54", "sn_subgr_200", "sn_gr_200", "sn_rand_54")
	for _, name := range names {
		ns, err := ResolvePreset(name)
		if err != nil {
			t.Errorf("%s: does not resolve: %v", name, err)
			continue
		}
		if _, ok := TopologyByName(ns.Topology); !ok {
			t.Errorf("%s: resolves to unregistered topology %q", name, ns.Topology)
		}
		net, _, err := BuildNetwork(NetworkSpec{Preset: name})
		if err != nil {
			t.Errorf("%s: does not build: %v", name, err)
			continue
		}
		if net.Name != strings.ToLower(name) {
			t.Errorf("%s: network named %q", name, net.Name)
		}
		if err := net.Validate(); err != nil {
			t.Errorf("%s: invalid network: %v", name, err)
		}
	}
	if _, err := ResolvePreset("sn_weird_200"); err == nil {
		t.Error("unknown layout preset resolved")
	}
	if _, err := ResolvePreset("nope"); err == nil {
		t.Error("unknown preset resolved")
	}
}

// TestRoutingRegistryComplete instantiates every routing algorithm on a
// small torus: static ones must hand back a route table, adaptive ones a
// policy.
func TestRoutingRegistryComplete(t *testing.T) {
	net, kind, err := BuildNetwork(NetworkSpec{Preset: "t2d54"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Routings() {
		e, ok := routings.lookup(name)
		if !ok {
			t.Errorf("%s: listed but not resolvable", name)
			continue
		}
		tab, policy, err := e.New(net, kind, 2)
		if err != nil {
			t.Errorf("%s: does not build: %v", name, err)
			continue
		}
		if e.Adaptive {
			if policy == nil || tab != nil {
				t.Errorf("%s: adaptive entry built table %v, policy %v", name, tab, policy)
			}
			continue
		}
		if tab == nil || policy != nil {
			t.Errorf("%s: static entry built table %v, policy %v", name, tab, policy)
			continue
		}
		if words := tab.AppendNextWords(nil, 0, net.Nr-1); len(words) < 2 || words[len(words)-1] != routing.NextEject {
			t.Errorf("%s: bad route %#x", name, words)
		}
	}
}

// TestTrafficRegistryComplete builds every traffic generator from its
// example.
func TestTrafficRegistryComplete(t *testing.T) {
	net, _, err := BuildNetwork(NetworkSpec{Preset: "t2d54"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Traffics() {
		e, ok := TrafficByName(name)
		if !ok {
			t.Errorf("%s: listed but not resolvable", name)
			continue
		}
		if e.Example.Pattern != name {
			t.Errorf("%s: example names pattern %q", name, e.Example.Pattern)
		}
		src, err := e.New(net, e.Example)
		if err != nil {
			t.Errorf("%s: example does not build: %v", name, err)
			continue
		}
		if src == nil {
			t.Errorf("%s: nil source", name)
		}
	}
}

// TestSchemeRegistryComplete resolves every buffering scheme.
func TestSchemeRegistryComplete(t *testing.T) {
	for _, name := range Schemes() {
		e, ok := schemes.lookup(name)
		if !ok {
			t.Errorf("%s: listed but not resolvable", name)
			continue
		}
		cfg, err := e.New(BufferingSpec{Scheme: name, CBCap: 10, EdgeCap: 4}, 9, 2)
		if err != nil {
			t.Errorf("%s: does not resolve: %v", name, err)
			continue
		}
		if cfg.BufCap != nil && cfg.BufCap(5) < 1 {
			t.Errorf("%s: non-positive buffer capacity", name)
		}
	}
}

// TestLayoutRegistryComplete builds the smallest Slim NoC in every layout.
func TestLayoutRegistryComplete(t *testing.T) {
	for _, name := range Layouts() {
		net, _, err := BuildNetwork(NetworkSpec{Topology: "sn", Q: 3, Conc: 3, Layout: name})
		if err != nil {
			t.Errorf("%s: does not build: %v", name, err)
			continue
		}
		if net.Coords == nil {
			t.Errorf("%s: no placement", name)
		}
	}
}

// TestPresetOverrides checks that explicit fields override an expanded
// preset instead of being silently dropped.
func TestPresetOverrides(t *testing.T) {
	net, _, err := BuildNetwork(NetworkSpec{Preset: "sn_subgr_200", Conc: 2})
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 100 || net.P != 2 {
		t.Errorf("conc override: N=%d P=%d, want 100/2", net.N(), net.P)
	}
	net, _, err = BuildNetwork(NetworkSpec{Preset: "sn_basic_200", Layout: "gr"})
	if err != nil {
		t.Fatal(err)
	}
	if net.Name != "sn_gr_200" {
		t.Errorf("layout override: network %q, want sn_gr_200", net.Name)
	}
	ns, err := ExpandNetwork(NetworkSpec{Preset: "sn_gr_200"})
	if err != nil {
		t.Fatal(err)
	}
	if ns.Q != 5 || ns.Conc != 4 || ns.Layout != "gr" {
		t.Errorf("ExpandNetwork: %+v, want q=5 conc=4 layout=gr", ns)
	}
}

// TestRegisterCustomTopology exercises the extension point end to end: a
// user-registered topology becomes runnable by name with zero caller
// changes.
func TestRegisterCustomTopology(t *testing.T) {
	base, _ := TopologyByName("torus")
	RegisterTopology("test-ring", TopologyEntry{
		Build: func(ns NetworkSpec) (*Network, Kind, error) {
			ns.X, ns.Y, ns.Conc = 6, 1, 2
			return base.Build(ns)
		},
		Section: "test",
		Example: NetworkSpec{Topology: "test-ring"},
	})
	spec := RunSpec{
		Network: NetworkSpec{Topology: "test-ring"},
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.05},
		Sim:     SimSpec{WarmupCycles: 100, MeasureCycles: 400, DrainCycles: 1000, Seed: 3},
	}
	res, err := Run(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Network.Nodes != 12 {
		t.Errorf("custom topology has %d nodes, want 12", res.Network.Nodes)
	}
	if res.Metrics.Delivered == 0 {
		t.Error("custom topology delivered nothing")
	}
}
