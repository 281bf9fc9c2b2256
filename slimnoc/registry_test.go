package slimnoc

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
)

// TestTopologyRegistryComplete builds every topology in the name table from
// its example spec and validates the resulting network.
func TestTopologyRegistryComplete(t *testing.T) {
	names := topologies.names
	if len(names) < 5 {
		t.Fatalf("expected at least 5 topologies, have %v", names)
	}
	for _, name := range names {
		e, err := topologies.lookup(name)
		if err != nil {
			t.Errorf("%s: listed but not resolvable: %v", name, err)
			continue
		}
		if e.section == "" {
			t.Errorf("%s: no paper section recorded", name)
		}
		if e.example.Topology != name {
			t.Errorf("%s: example names topology %q", name, e.example.Topology)
		}
		net, _, err := BuildNetwork(e.example)
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
	names := append(sortedKeys(presetTable), "sn_basic_54", "sn_subgr_200", "sn_gr_200", "sn_rand_54")
	for _, name := range names {
		ns, err := ResolvePreset(name)
		if err != nil {
			t.Errorf("%s: does not resolve: %v", name, err)
			continue
		}
		if _, err := topologies.lookup(ns.Topology); err != nil {
			t.Errorf("%s: resolves to an unknown topology: %v", name, err)
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
// small torus: static ones must compile a route table, adaptive ones carry
// a policy.
func TestRoutingRegistryComplete(t *testing.T) {
	net, kind, err := BuildNetwork(NetworkSpec{Preset: "t2d54"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range routings.names {
		e, err := routings.lookup(name)
		if err != nil {
			t.Errorf("%s: listed but not resolvable: %v", name, err)
			continue
		}
		if e.section == "" {
			t.Errorf("%s: no paper section recorded", name)
		}
		if (e.compile == nil) == (e.policy == nil) {
			t.Errorf("%s: wants exactly one of a compiler and a policy", name)
			continue
		}
		if e.policy != nil {
			continue
		}
		tab, err := e.compile(net, kind, 2)
		if err != nil {
			t.Errorf("%s: does not build: %v", name, err)
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
	for _, name := range traffics.names {
		e, err := traffics.lookup(name)
		if err != nil {
			t.Errorf("%s: listed but not resolvable: %v", name, err)
			continue
		}
		if e.section == "" {
			t.Errorf("%s: no paper section recorded", name)
		}
		if e.example.Pattern != name {
			t.Errorf("%s: example names pattern %q", name, e.example.Pattern)
		}
		src, err := e.source(net, e.example)
		if err != nil {
			t.Errorf("%s: example does not build: %v", name, err)
			continue
		}
		if src == nil {
			t.Errorf("%s: nil source", name)
		}
	}
}

// TestSchemeRegistryComplete resolves every buffering scheme, aliases
// included.
func TestSchemeRegistryComplete(t *testing.T) {
	if len(schemes.entries) != 5 {
		t.Errorf("%d scheme entries, want the 5 of §4-5.1", len(schemes.entries))
	}
	for _, name := range schemes.names {
		e, err := schemes.lookup(name)
		if err != nil {
			t.Errorf("%s: listed but not resolvable: %v", name, err)
			continue
		}
		if e.section == "" {
			t.Errorf("%s: no paper section recorded", name)
		}
		b := core.Buffers{Scheme: e.scheme, VCs: 2, H: 9}
		if b.InputCap(5) < 1 || (!e.scheme.EdgeBuffers() && b.LatchCap(5) < 1) {
			t.Errorf("%s: non-positive buffer capacity", name)
		}
	}
}

// TestLayoutRegistryComplete builds the smallest Slim NoC in every layout.
func TestLayoutRegistryComplete(t *testing.T) {
	for _, name := range layouts.names {
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
