package slimnoc

// Pins for name resolution: every name a spec may use, in lower and upper
// case, resolves to the same network, routing split and buffer scheme, and
// every unknown name fails with the same text at every entry point.

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
)

// casings returns a name in lower and upper case.
func casings(name string) []string {
	return []string{strings.ToLower(name), strings.ToUpper(name)}
}

// specNetwork builds the network of a spec through the spec path (names
// normalized first), as Run does.
func specNetwork(t *testing.T, ns NetworkSpec) (*Network, routing.Kind) {
	t.Helper()
	net, kind, err := BuildNetwork(RunSpec{Network: ns}.Normalized().Network)
	if err != nil {
		t.Fatalf("%+v: %v", ns, err)
	}
	return net, kind
}

func TestNameResolutionTopologies(t *testing.T) {
	cases := []struct {
		ns   NetworkSpec
		name string
		kind routing.Kind
	}{
		{NetworkSpec{Topology: "sn", Q: 3, Conc: 3, Layout: "subgr"}, "sn_subgr_54", routing.Kind{Class: routing.ClassGeneric}},
		{NetworkSpec{Topology: "sn", Nodes: 200}, "sn_subgr_200", routing.Kind{Class: routing.ClassGeneric}},
		{NetworkSpec{Topology: "mesh", X: 4, Y: 3, Conc: 2}, "cm_4x3_p2", routing.Kind{Class: routing.ClassMesh, RX: 4, RY: 3}},
		{NetworkSpec{Topology: "torus", X: 4, Y: 3, Conc: 2}, "t2d_4x3_p2", routing.Kind{Class: routing.ClassTorus, RX: 4, RY: 3}},
		{NetworkSpec{Topology: "flatfly", X: 4, Y: 3, Conc: 2}, "fbf_4x3_p2", routing.Kind{Class: routing.ClassFBF, RX: 4, RY: 3}},
		{NetworkSpec{Topology: "pflatfly", PartsX: 2, PartsY: 1, X: 3, Y: 3, Conc: 3},
			"pfbf_2x1_of_3x3_p3", routing.Kind{Class: routing.ClassPFBF, RX: 3, RY: 3, PX: 2, PY: 1}},
		{NetworkSpec{Topology: "dragonfly", Conc: 4, Extra: map[string]int{"a": 5, "h": 2, "g": 10}},
			"df_a5_h2_g10_p4", routing.Kind{Class: routing.ClassGeneric}},
		{NetworkSpec{Topology: "clos", Conc: 8, Extra: map[string]int{"leaves": 25, "spines": 7}},
			"clos_25x7_p8", routing.Kind{Class: routing.ClassGeneric}},
	}
	for _, c := range cases {
		for _, topology := range casings(c.ns.Topology) {
			ns := c.ns
			ns.Topology = topology
			net, kind := specNetwork(t, ns)
			if net.Name != c.name || kind != c.kind {
				t.Errorf("topology %q: network %q kind %+v, want %q %+v", topology, net.Name, kind, c.name, c.kind)
			}
		}
	}
	for _, layout := range []string{"basic", "subgr", "gr", "rand"} {
		for _, l := range casings(layout) {
			net, _ := specNetwork(t, NetworkSpec{Topology: "sn", Q: 3, Conc: 3, Layout: l})
			if want := "sn_" + layout + "_54"; net.Name != want {
				t.Errorf("layout %q: network %q, want %q", l, net.Name, want)
			}
		}
	}
}

func TestNameResolutionPresets(t *testing.T) {
	presets := map[string]int{ // name -> nodes
		"cm3": 192, "cm4": 200, "t2d3": 192, "t2d4": 200, "fbf3": 192, "fbf4": 200,
		"pfbf3": 192, "pfbf4": 200,
		"cm9": 1296, "cm8": 1296, "t2d9": 1296, "t2d8": 1296, "fbf9": 1296, "fbf8": 1296,
		"pfbf9": 1296, "pfbf8": 1296,
		"t2d54": 54, "fbf54": 54, "pfbf54": 54,
		"cm10k": 10080, "t2d10k": 10080, "fbf10k": 10080,
		"cm100k": 100352, "t2d100k": 100352, "fbf100k": 100352,
		"sn_basic_54": 54, "sn_subgr_200": 200, "sn_gr_1296": 1296, "sn_rand_50": 50,
	}
	for preset, nodes := range presets {
		for _, p := range casings(preset) {
			lower, err := ResolvePreset(preset)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ResolvePreset(p)
			if err != nil {
				t.Errorf("preset %q: %v", p, err)
				continue
			}
			if got.Topology != lower.Topology || got.Layout != lower.Layout || got.Nodes != lower.Nodes || got.X != lower.X {
				t.Errorf("preset %q resolves to %+v, %q to %+v", p, got, preset, lower)
			}
			if nodes > 1296 {
				continue // the scale presets build in TestPresetsResolveAndBuild
			}
			net, _ := specNetwork(t, NetworkSpec{Preset: p})
			if net.Name != preset || net.N() != nodes {
				t.Errorf("preset %q: network %q with %d nodes, want %q with %d", p, net.Name, net.N(), preset, nodes)
			}
		}
	}
}

func TestNameResolutionRoutings(t *testing.T) {
	net, kind := specNetwork(t, NetworkSpec{Preset: "t2d54"})
	for alg, adaptive := range map[string]bool{
		"auto": false, "minimal": false, "ugal-l": true, "ugal-g": true, "min-adapt": true,
	} {
		for _, a := range casings(alg) {
			spec := RunSpec{Network: NetworkSpec{Preset: "t2d54"}, Routing: RoutingSpec{Algorithm: a}}
			if err := spec.Validate(); err != nil {
				t.Errorf("routing %q: %v", a, err)
			}
			tab, err := CompileRouteTable(net, kind, a, 2)
			_, eerr := NewEstimator(spec)
			if adaptive {
				if err == nil || !strings.Contains(err.Error(), "routes per packet") || eerr == nil {
					t.Errorf("adaptive routing %q: CompileRouteTable %v, NewEstimator %v", a, err, eerr)
				}
				continue
			}
			if err != nil || tab == nil || eerr != nil {
				t.Errorf("static routing %q: CompileRouteTable %v, NewEstimator %v", a, err, eerr)
			}
		}
	}
}

func TestNameResolutionSchemes(t *testing.T) {
	dists := []int{1, 2, 3, 7, 20}
	cases := []struct {
		scheme  string
		edgeCap int
		kind    core.Scheme
		caps    []int // per-VC input capacity per dists
	}{
		{"eb", 0, core.EB, []int{5, 5, 5, 5, 5}},
		{"eb", 4, core.EB, []int{4, 4, 4, 4, 4}},
		{"eb-large", 0, core.EBLarge, []int{15, 15, 15, 15, 15}},
		{"eblarge", 0, core.EBLarge, []int{15, 15, 15, 15, 15}},
		{"eb-var", 0, core.EBVar, []int{5, 5, 5, 9, 17}},
		{"ebvar", 0, core.EBVar, []int{5, 5, 5, 9, 17}},
		{"el", 0, core.EL, []int{1, 1, 1, 1, 1}},
		{"cbr", 0, core.CBR, []int{1, 1, 1, 1, 1}},
	}
	for _, c := range cases {
		for _, s := range casings(c.scheme) {
			spec := RunSpec{
				Network:   NetworkSpec{Preset: "t2d54"},
				Buffering: BufferingSpec{Scheme: s, EdgeCap: c.edgeCap, CBCap: 10},
				HopFactor: 3,
			}
			if err := spec.Validate(); err != nil {
				t.Errorf("scheme %q: %v", s, err)
			}
			e, err := NewEstimator(spec)
			if err != nil {
				t.Errorf("scheme %q: %v", s, err)
				continue
			}
			var caps []int
			for _, d := range dists {
				caps = append(caps, e.cfg.InputCap(d))
			}
			want := core.Buffers{Scheme: c.kind, VCs: 2, H: 3, EdgeCap: c.edgeCap, CBCap: 10}
			if e.cfg.Buffers != want || !equalInts(caps, c.caps) {
				t.Errorf("scheme %q edge_cap %d: plan %+v caps %v, want %+v %v",
					s, c.edgeCap, e.cfg.Buffers, caps, want, c.caps)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNameResolutionWorkloads(t *testing.T) {
	run := func(ts TrafficSpec) error {
		spec := RunSpec{Network: NetworkSpec{Preset: "t2d54"}, Traffic: ts,
			Sim: SimSpec{WarmupCycles: 20, MeasureCycles: 60, DrainCycles: 200, Seed: 1}}
		if err := spec.Validate(); err != nil {
			return err
		}
		_, err := Run(t.Context(), spec)
		return err
	}
	for _, pattern := range []string{"rnd", "shf", "rev", "adv1", "adv2", "asym", "trace"} {
		for _, p := range casings(pattern) {
			ts := TrafficSpec{Pattern: p, Rate: 0.05}
			if pattern == "trace" {
				ts.Trace = "fft"
			}
			if err := run(ts); err != nil {
				t.Errorf("pattern %q: %v", p, err)
			}
		}
	}
	for _, process := range []string{"bernoulli", "burst", "mmpp", "reqreply"} {
		for _, p := range casings(process) {
			if err := run(TrafficSpec{Pattern: "rnd", Rate: 0.05, Process: p}); err != nil {
				t.Errorf("process %q: %v", p, err)
			}
		}
	}
}

// TestUnknownNameErrors pins the error for an unknown name on each axis, at
// every entry point that resolves it.
func TestUnknownNameErrors(t *testing.T) {
	const (
		topoErr    = `slimnoc: unknown topology "nope" (have clos, dragonfly, flatfly, mesh, pflatfly, sn, torus)`
		layoutErr  = `slimnoc: unknown layout "nope" (have basic, gr, rand, subgr)`
		presetErr  = `slimnoc: unknown network preset "nope"`
		routingErr = `slimnoc: unknown routing algorithm "nope" (have auto, min-adapt, minimal, ugal-g, ugal-l)`
		schemeErr  = `slimnoc: unknown buffer scheme "nope" (have cbr, eb, eb-large, eb-var, eblarge, ebvar, el)`
		patternErr = `slimnoc: unknown traffic pattern "nope" (have adv1, adv2, asym, rev, rnd, shf, trace)`
		processErr = `slimnoc: unknown traffic process "nope" (have bernoulli, burst, mmpp, reqreply)`
	)
	base := RunSpec{
		Network: NetworkSpec{Preset: "t2d54"},
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.05},
		Sim:     SimSpec{WarmupCycles: 20, MeasureCycles: 60, DrainCycles: 200, Seed: 1},
	}
	with := func(f func(*RunSpec)) RunSpec {
		s := base
		f(&s)
		return s
	}
	badTopo := with(func(s *RunSpec) { s.Network = NetworkSpec{Topology: "nope"} })
	badLayout := with(func(s *RunSpec) { s.Network = NetworkSpec{Topology: "sn", Q: 3, Layout: "nope"} })
	badPreset := with(func(s *RunSpec) { s.Network.Preset = "nope" })
	badRouting := with(func(s *RunSpec) { s.Routing.Algorithm = "nope" })
	badScheme := with(func(s *RunSpec) { s.Buffering.Scheme = "nope" })
	badPattern := with(func(s *RunSpec) { s.Traffic.Pattern = "nope" })
	badProcess := with(func(s *RunSpec) { s.Traffic.Process = "nope" })

	net, kind := specNetwork(t, base.Network)
	estimate := func(s RunSpec) error { _, err := NewEstimator(s); return err }
	run := func(s RunSpec) error { _, err := Run(t.Context(), s); return err }
	buildNet := func(s RunSpec) error { _, _, err := BuildNetwork(s.Network); return err }
	cases := []struct {
		site string
		err  error
		want string
	}{
		{"Validate/topology", badTopo.Validate(), topoErr},
		{"BuildNetwork/topology", buildNet(badTopo), topoErr},
		{"Run/topology", run(badTopo), topoErr},
		{"BuildNetwork/layout", buildNet(badLayout), layoutErr},
		{"Run/layout", run(badLayout), layoutErr},
		{"Validate/preset", badPreset.Validate(), presetErr},
		{"Run/preset", run(badPreset), presetErr},
		{"Validate/routing", badRouting.Validate(), routingErr},
		{"Run/routing", run(badRouting), routingErr},
		{"NewEstimator/routing", estimate(badRouting), routingErr},
		{"CompileRouteTable/routing", func() error { _, err := CompileRouteTable(net, kind, "nope", 2); return err }(), routingErr},
		{"Validate/scheme", badScheme.Validate(), schemeErr},
		{"Run/scheme", run(badScheme), schemeErr},
		{"NewEstimator/scheme", estimate(badScheme), schemeErr},
		{"Validate/pattern", badPattern.Validate(), patternErr},
		{"Run/pattern", run(badPattern), patternErr},
		{"Validate/process", badProcess.Validate(), processErr},
		{"Run/process", run(badProcess), processErr},
	}
	for _, c := range cases {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("%s: error %v,\nwant %s", c.site, c.err, c.want)
		}
	}
}
