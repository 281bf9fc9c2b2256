package slimnoc

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// nameTable is one axis of the paper's fixed design space: the names a spec
// may use on it and what each one builds. The tables are built once, when
// the package initialises, and never change after: adding a name is a code
// change, so a PointKey (which hashes names, not code) always refers to the
// code that computed its result.
type nameTable[T any] struct {
	axis    string            // the axis as its unknown-name error calls it
	entries map[string]T      // keyed by lower-case name
	aliases map[string]string // other accepted spellings -> entry name
	names   []string          // every accepted spelling, sorted
}

func newNameTable[T any](axis string, entries map[string]T, aliases map[string]string) nameTable[T] {
	names := append(sortedKeys(entries), sortedKeys(aliases)...)
	sort.Strings(names)
	return nameTable[T]{axis: axis, entries: entries, aliases: aliases, names: names}
}

func sortedKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// canonical returns the entry name a spelling stands for: lower case, with
// an alias replaced by its entry's name.
func (t nameTable[T]) canonical(name string) string {
	name = strings.ToLower(name)
	return cmp.Or(t.aliases[name], name)
}

// lookup resolves a name on the table's axis, case-insensitively. It owns
// the axis's unknown-name error.
func (t nameTable[T]) lookup(name string) (T, error) {
	e, ok := t.entries[t.canonical(name)]
	if !ok {
		return e, fmt.Errorf("slimnoc: unknown %s %q (have %s)", t.axis, name, strings.Join(t.names, ", "))
	}
	return e, nil
}

// topology is one network family a NetworkSpec can name.
type topology struct {
	build func(ns NetworkSpec) (*topo.Network, routing.Kind, error)
	// section cites where the paper introduces or evaluates the family.
	section string
	// example is a minimal valid NetworkSpec for the completeness tests.
	example NetworkSpec
}

// routingAlg is one routing algorithm a RoutingSpec can name. A static
// algorithm compiles to an immutable route table that campaigns share
// across every point with the same (network, algorithm, VCs); an adaptive
// one routes each packet from live network state through a stateless
// policy (the engine supplies its route table and VC count), so one policy
// value serves every run.
type routingAlg struct {
	compile func(net *topo.Network, kind routing.Kind, vcs int) (*routing.RouteTable, error) // nil if adaptive
	policy  sim.AdaptivePolicy                                                               // nil if static
	section string
}

// bufScheme is one buffer organisation a BufferingSpec can name; its sizes
// are the buffer plan's (core.Buffers).
type bufScheme struct {
	scheme  core.Scheme
	section string
}

// trafficGen is one traffic generator a TrafficSpec's Pattern can name.
type trafficGen struct {
	source  func(net *topo.Network, ts TrafficSpec) (sim.Source, error)
	section string
	example TrafficSpec // a runnable spec for this generator
}

// process is one temporal injection process — the second axis of the
// Pattern x Process x Sizer workload decomposition — a TrafficSpec can name.
type process struct {
	// open builds an open-loop process for n nodes from a resolved
	// TrafficSpec. Nil for Bernoulli (the nil process inside
	// traffic.Synthetic) and for closed-loop processes.
	open func(n int, ts TrafficSpec) traffic.Process
	// closedLoop marks a process that replaces the whole open-loop source
	// with a self-throttling one.
	closedLoop bool
	section    string
	example    TrafficSpec // a runnable spec for this process
}

var topologies = newNameTable("topology", map[string]topology{
	"sn": {buildSlimNoC, "§3 (Slim NoC construction, layouts §3.2-3.3)",
		NetworkSpec{Topology: "sn", Q: 3, Conc: 3, Layout: "subgr"}},
	"mesh": {grid(topo.Mesh2D, routing.ClassMesh), "§5.1, Table 4 (concentrated mesh baseline)",
		NetworkSpec{Topology: "mesh", X: 4, Y: 4, Conc: 2}},
	"torus": {grid(topo.Torus2D, routing.ClassTorus), "§5.1, Table 4 (2D torus baseline)",
		NetworkSpec{Topology: "torus", X: 4, Y: 4, Conc: 2}},
	"flatfly": {grid(topo.FBF, routing.ClassFBF), "§5.1, Table 4 (flattened butterfly baseline)",
		NetworkSpec{Topology: "flatfly", X: 4, Y: 4, Conc: 2}},
	"pflatfly": {buildPFBF, "§5.1, Table 4 (partitioned flattened butterfly baseline)",
		NetworkSpec{Topology: "pflatfly", PartsX: 2, PartsY: 1, X: 3, Y: 3, Conc: 3}},
	"dragonfly": {buildDragonfly, "§2.2, Fig. 3 (Dragonfly straight on-chip)",
		NetworkSpec{Topology: "dragonfly", Conc: 4, Extra: map[string]int{"a": 5, "h": 2, "g": 10}}},
	"clos": {buildClos, "§5.5 (folded Clos comparison; analytical models only)",
		NetworkSpec{Topology: "clos", Conc: 8, Extra: map[string]int{"leaves": 25, "spines": 7}}},
}, nil)

var layouts = newNameTable("layout", map[string]core.Layout{
	"basic": core.LayoutBasic,    // §3.2.1 (baseline placement)
	"subgr": core.LayoutSubgroup, // §3.3 (subgroup layout)
	"gr":    core.LayoutGroup,    // §3.3 (group layout)
	"rand":  core.LayoutRand,     // §3.3 (randomized layout)
}, nil)

var routings = newNameTable("routing algorithm", map[string]routingAlg{
	"auto": {compile: routing.NewTable,
		section: "§4.3, §5.1 (topology-appropriate deadlock-free static minimal)"},
	"minimal": {compile: func(net *topo.Network, _ routing.Kind, vcs int) (*routing.RouteTable, error) {
		return routing.CompileCompact(net, vcs)
	}, section: "§5.1 (generic minimal with ascending VCs)"},
	"ugal-l":    {policy: &sim.UGAL{Global: false}, section: "§6, Fig. 20 (UGAL, local congestion knowledge)"},
	"ugal-g":    {policy: &sim.UGAL{Global: true}, section: "§6, Fig. 20 (UGAL, global congestion knowledge)"},
	"min-adapt": {policy: &sim.MinAdaptive{}, section: "§6, Fig. 20 (minimal adaptive, XY-ADAPT analogue)"},
}, nil)

var schemes = newNameTable("buffer scheme", map[string]bufScheme{
	"eb":       {core.EB, "§5.1 (EB-Small: 5-flit per-VC edge buffers)"},
	"eb-large": {core.EBLarge, "§5.1 (EB-Large: 15-flit per-VC edge buffers)"},
	"eb-var":   {core.EBVar, "§3.2.2 (EB-Var: wire-length-proportional buffers)"},
	"el":       {core.EL, "§4.2 (ElastiStore-style elastic links)"},
	"cbr":      {core.CBR, "§4.1 (central-buffer router, 2-cycle bypass)"},
}, map[string]string{ // the historical snsim spellings
	"eblarge": "eb-large",
	"ebvar":   "eb-var",
})

var traffics = newNameTable("traffic pattern", map[string]trafficGen{
	"rnd":  synthetic("RND", "§5.1 (uniform random)"),
	"shf":  synthetic("SHF", "§5.1 (bit shuffle)"),
	"rev":  synthetic("REV", "§5.1 (bit reversal)"),
	"adv1": synthetic("ADV1", "§5.1 (adversarial: farthest-partner permutation)"),
	"adv2": synthetic("ADV2", "§5.1 (adversarial: cross-die offset)"),
	"asym": synthetic("ASYM", "§6, Fig. 20 (asymmetric)"),
	"trace": {func(net *topo.Network, ts TrafficSpec) (sim.Source, error) {
		b := trace.BenchmarkByName(ts.Trace)
		if b == nil {
			return nil, fmt.Errorf("slimnoc: unknown trace benchmark %q", ts.Trace)
		}
		return trace.NewSource(*b, net.N()), nil
	}, "§5.1 (PARSEC/SPLASH trace substitute)", TrafficSpec{Pattern: "trace", Trace: "fft"}},
}, nil)

var processes = newNameTable("traffic process", map[string]process{
	// The explicit spelling of the default: specs normalize it back to the
	// empty string.
	"bernoulli": {section: "§5.1 (open-loop memoryless injection)",
		example: TrafficSpec{Pattern: "rnd", Rate: 0.06, Process: "bernoulli"}},
	"burst": {open: func(n int, ts TrafficSpec) traffic.Process {
		return traffic.NewOnOff(n, ts.BurstLen, ts.Duty)
	}, section: "related work (bursty on/off arrivals, geometric burst lengths)",
		example: TrafficSpec{Pattern: "rnd", Rate: 0.06, Process: "burst", BurstLen: 8, Duty: 0.25}},
	"mmpp": {open: func(_ int, ts TrafficSpec) traffic.Process {
		return traffic.NewModulated(ts.ModFactor, ts.ModPeriod)
	}, section: "related work (Markov-modulated injection epochs)",
		example: TrafficSpec{Pattern: "rnd", Rate: 0.06, Process: "mmpp", ModFactor: 1.8, ModPeriod: 200}},
	"reqreply": {closedLoop: true,
		section: "related work (closed-loop memory traffic, cf. §5.1 read/reply sizes)",
		example: TrafficSpec{Pattern: "rnd", Process: "reqreply", Window: 4}},
}, nil)

// hasOverrides reports whether any explicit parameter accompanies the
// spec's preset name.
func (ns NetworkSpec) hasOverrides() bool {
	return ns.Topology != "" || ns.X != 0 || ns.Y != 0 || ns.Conc != 0 ||
		ns.PartsX != 0 || ns.PartsY != 0 || ns.Q != 0 || ns.Nodes != 0 ||
		ns.Layout != "" || ns.LayoutSeed != 0 || len(ns.Extra) > 0 ||
		ns.FailFrac != 0 || ns.FailSeed != 0
}

// ExpandNetwork resolves a NetworkSpec to explicit parameters: a preset is
// expanded first with any explicitly set fields overriding it, and a Slim
// NoC given only a node count gets its q and concentration resolved via
// Table 2, and the subgroup layout if it names none.
func ExpandNetwork(ns NetworkSpec) (NetworkSpec, error) {
	if ns.Preset != "" {
		expanded, err := resolvePreset(ns.Preset)
		if err != nil {
			return NetworkSpec{}, err
		}
		if ns.Topology != "" {
			expanded.Topology = ns.Topology
		}
		if ns.X != 0 {
			expanded.X = ns.X
		}
		if ns.Y != 0 {
			expanded.Y = ns.Y
		}
		if ns.Conc != 0 {
			expanded.Conc = ns.Conc
		}
		if ns.PartsX != 0 {
			expanded.PartsX = ns.PartsX
		}
		if ns.PartsY != 0 {
			expanded.PartsY = ns.PartsY
		}
		if ns.Q != 0 {
			expanded.Q, expanded.Nodes = ns.Q, 0
		}
		if ns.Nodes != 0 {
			expanded.Nodes = ns.Nodes
		}
		if ns.Layout != "" {
			expanded.Layout = ns.Layout
		}
		if ns.LayoutSeed != 0 {
			expanded.LayoutSeed = ns.LayoutSeed
		}
		if len(ns.Extra) > 0 {
			expanded.Extra = ns.Extra
		}
		expanded.FailFrac, expanded.FailSeed = ns.FailFrac, ns.FailSeed
		ns = expanded
	}
	ns.Topology, ns.Layout = strings.ToLower(ns.Topology), strings.ToLower(ns.Layout)
	if ns.Topology == "sn" {
		if ns.Q == 0 && ns.Nodes > 0 {
			params, err := core.FromNetworkSize(ns.Nodes)
			if err != nil {
				return NetworkSpec{}, err
			}
			ns.Q = params.Q
			if ns.Conc == 0 {
				ns.Conc = params.P
			}
		}
		if ns.Layout == "" {
			ns.Layout = "subgr"
		}
	}
	return ns, nil
}

// BuildNetwork constructs the placed network and routing kind described by
// a NetworkSpec, expanding its preset (with explicit fields as overrides)
// first if one is named. A spec with link failures builds the intact
// network, then removes its FailFrac share of links; the damaged copy is
// named after the intact one and routes as a generic graph.
func BuildNetwork(ns NetworkSpec) (*topo.Network, routing.Kind, error) {
	if err := ns.validateFailures(); err != nil {
		return nil, routing.Kind{}, err
	}
	if ns.FailFrac > 0 {
		intact := ns
		intact.FailFrac, intact.FailSeed = 0, 0
		net, _, err := BuildNetwork(intact)
		if err != nil {
			return nil, routing.Kind{}, err
		}
		return net.RemoveRandomLinks(ns.FailFrac, ns.FailSeed), routing.Kind{Class: routing.ClassGeneric}, nil
	}
	name := strings.ToLower(ns.Preset)
	pristine := name != "" && !ns.hasOverrides()
	ns, err := ExpandNetwork(ns)
	if err != nil {
		return nil, routing.Kind{}, err
	}
	if ns.Topology == "" {
		return nil, routing.Kind{}, fmt.Errorf("slimnoc: network spec names no topology")
	}
	t, err := topologies.lookup(ns.Topology)
	if err != nil {
		return nil, routing.Kind{}, err
	}
	net, kind, err := t.build(ns)
	if err != nil {
		return nil, routing.Kind{}, err
	}
	if pristine {
		net.Name = name
	} else if net.Name == "" {
		net.Name = ns.Topology
	}
	return net, kind, nil
}

func needGrid(ns NetworkSpec) error {
	if ns.X <= 0 || ns.Y <= 0 || ns.Conc <= 0 {
		return fmt.Errorf("slimnoc: topology %q needs x, y and conc", ns.Topology)
	}
	return nil
}

func extraParam(ns NetworkSpec, key string) (int, error) {
	v, ok := ns.Extra[key]
	if !ok || v <= 0 {
		return 0, fmt.Errorf("slimnoc: topology %q needs extra.%s", ns.Topology, key)
	}
	return v, nil
}

// buildSlimNoC builds an expanded Slim NoC spec (see ExpandNetwork).
func buildSlimNoC(ns NetworkSpec) (*topo.Network, routing.Kind, error) {
	if ns.Q == 0 {
		return nil, routing.Kind{}, fmt.Errorf("slimnoc: topology sn needs q or nodes")
	}
	params := core.Params{Q: ns.Q, P: ns.Conc}
	if params.P == 0 {
		kp, err := core.KPrimeFor(params.Q)
		if err != nil {
			return nil, routing.Kind{}, err
		}
		params.P = (kp + 1) / 2
	}
	layout, err := layouts.lookup(ns.Layout)
	if err != nil {
		return nil, routing.Kind{}, err
	}
	s, err := core.New(params)
	if err != nil {
		return nil, routing.Kind{}, err
	}
	net, err := s.Network(layout, cmp.Or(ns.LayoutSeed, 1))
	if err != nil {
		return nil, routing.Kind{}, err
	}
	net.Name = fmt.Sprintf("sn_%s_%d", ns.Layout, s.N())
	return net, routing.Kind{Class: routing.ClassGeneric}, nil
}

// grid builds an X x Y router grid at concentration Conc: the mesh, torus
// and flattened-butterfly baselines.
func grid(build func(x, y, conc int) *topo.Network, class routing.Class) func(NetworkSpec) (*topo.Network, routing.Kind, error) {
	return func(ns NetworkSpec) (*topo.Network, routing.Kind, error) {
		if err := needGrid(ns); err != nil {
			return nil, routing.Kind{}, err
		}
		return build(ns.X, ns.Y, ns.Conc), routing.Kind{Class: class, RX: ns.X, RY: ns.Y}, nil
	}
}

func buildPFBF(ns NetworkSpec) (*topo.Network, routing.Kind, error) {
	if err := needGrid(ns); err != nil {
		return nil, routing.Kind{}, err
	}
	if ns.PartsX <= 0 || ns.PartsY <= 0 {
		return nil, routing.Kind{}, fmt.Errorf("slimnoc: topology pflatfly needs parts_x and parts_y")
	}
	return topo.PFBF(ns.PartsX, ns.PartsY, ns.X, ns.Y, ns.Conc),
		routing.Kind{Class: routing.ClassPFBF, RX: ns.X, RY: ns.Y, PX: ns.PartsX, PY: ns.PartsY}, nil
}

func buildDragonfly(ns NetworkSpec) (*topo.Network, routing.Kind, error) {
	a, err := extraParam(ns, "a")
	if err != nil {
		return nil, routing.Kind{}, err
	}
	h, err := extraParam(ns, "h")
	if err != nil {
		return nil, routing.Kind{}, err
	}
	g, err := extraParam(ns, "g")
	if err != nil {
		return nil, routing.Kind{}, err
	}
	if ns.Conc <= 0 {
		return nil, routing.Kind{}, fmt.Errorf("slimnoc: topology dragonfly needs conc")
	}
	net, err := topo.Dragonfly(a, h, g, ns.Conc)
	return net, routing.Kind{Class: routing.ClassGeneric}, err
}

func buildClos(ns NetworkSpec) (*topo.Network, routing.Kind, error) {
	leaves, err := extraParam(ns, "leaves")
	if err != nil {
		return nil, routing.Kind{}, err
	}
	spines, err := extraParam(ns, "spines")
	if err != nil {
		return nil, routing.Kind{}, err
	}
	if ns.Conc <= 0 {
		return nil, routing.Kind{}, fmt.Errorf("slimnoc: topology clos needs conc")
	}
	return topo.FoldedClos(leaves, spines, ns.Conc), routing.Kind{Class: routing.ClassGeneric}, nil
}

// Resolved defaults of the workload axes (zero spec fields fall back to
// these; the spec layer leaves zeros in place so point keys stay stable).
const (
	defaultBurstLen   = 8.0
	defaultDuty       = 0.25
	defaultModFactor  = 1.8
	defaultModPeriod  = 200.0
	defaultHotCount   = 4
	defaultShortFlits = 2
	defaultShortFrac  = 0.5
	defaultWindow     = 4
)

// resolveTraffic returns the spec with the runtime defaults of its selected
// process, overlay and size mix filled in — the exact values the traffic
// generators use. It is the inverse direction from RunSpec.Normalized, which
// canonicalizes defaults to ABSENT fields for stable content addressing:
// normalize to hash and compare specs, resolve to display or analyze what a
// run actually did (the CSV sink resolves, so a defaulted burst point
// reports burst_len=8 rather than a physically impossible 0).
func resolveTraffic(ts TrafficSpec) TrafficSpec {
	if ts.PacketFlits == 0 {
		ts.PacketFlits = 6
	}
	switch ts.Process {
	case "burst":
		if ts.BurstLen == 0 {
			ts.BurstLen = defaultBurstLen
		}
		if ts.Duty == 0 {
			ts.Duty = defaultDuty
		}
	case "mmpp":
		if ts.ModFactor == 0 {
			ts.ModFactor = defaultModFactor
		}
		if ts.ModPeriod == 0 {
			ts.ModPeriod = defaultModPeriod
		}
	case "reqreply":
		if ts.Window == 0 {
			ts.Window = defaultWindow
		}
		if ts.ShortFlits == 0 {
			ts.ShortFlits = defaultShortFlits
		}
	}
	if ts.HotspotFraction > 0 && ts.HotspotCount == 0 {
		ts.HotspotCount = defaultHotCount
	}
	if ts.SizeMix == "bimodal" {
		if ts.ShortFlits == 0 {
			ts.ShortFlits = defaultShortFlits
		}
		if ts.ShortFrac == 0 {
			ts.ShortFrac = defaultShortFrac
		}
	}
	return ts
}

// synthetic is the generator composing one of the paper's patterns with the
// spec's temporal process, hotspot overlay and packet-size mix — or, for a
// closed-loop process, the self-throttling request-reply source.
func synthetic(paperName, section string) trafficGen {
	source := func(net *topo.Network, ts TrafficSpec) (sim.Source, error) {
		if err := ts.validate(); err != nil {
			return nil, err
		}
		ts = resolveTraffic(ts)
		pat := traffic.PatternByName(paperName, net)
		if pat == nil {
			return nil, fmt.Errorf("slimnoc: pattern %q unavailable", paperName)
		}
		n := net.N()
		var spat traffic.Pattern = pat
		if ts.HotspotFraction > 0 {
			if ts.HotspotCount > n {
				return nil, fmt.Errorf("slimnoc: traffic.hotspot_count = %d exceeds the network's %d nodes", ts.HotspotCount, n)
			}
			spat = traffic.Hotspot{Frac: ts.HotspotFraction, K: ts.HotspotCount, N: n, Base: pat}
		}
		proc, err := processes.lookup(cmp.Or(ts.Process, "bernoulli"))
		if err != nil {
			return nil, err
		}
		if proc.closedLoop {
			return &traffic.ReqReply{N: n, Window: ts.Window, ReqFlits: ts.ShortFlits,
				ReplyFlits: ts.PacketFlits, Pattern: spat}, nil
		}
		if ts.Rate <= 0 {
			return nil, fmt.Errorf("slimnoc: pattern %q needs traffic.rate > 0", paperName)
		}
		var open traffic.Process
		if proc.open != nil {
			open = proc.open(n, ts)
		}
		var sizer traffic.Sizer
		if ts.SizeMix == "bimodal" {
			sizer = traffic.Bimodal{Short: ts.ShortFlits, Long: ts.PacketFlits, ShortFrac: ts.ShortFrac}
		}
		return &traffic.Synthetic{N: n, Rate: ts.Rate, PacketFlits: ts.PacketFlits,
			Pattern: spat, Process: open, Sizer: sizer}, nil
	}
	name := strings.ToLower(paperName)
	return trafficGen{source, section, TrafficSpec{Pattern: name, Rate: 0.06}}
}
