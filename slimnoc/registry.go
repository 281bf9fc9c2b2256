package slimnoc

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// registry is a string-keyed, registration-ordered table. Keys are
// case-insensitive.
type registry[T any] struct {
	mu      sync.RWMutex
	entries map[string]T
	order   []string
}

func (r *registry[T]) register(name string, v T) {
	name = strings.ToLower(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries == nil {
		r.entries = make(map[string]T)
	}
	if _, dup := r.entries[name]; !dup {
		r.order = append(r.order, name)
	}
	r.entries[name] = v
}

func (r *registry[T]) lookup(name string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.entries[strings.ToLower(name)]
	return v, ok
}

func (r *registry[T]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := append([]string(nil), r.order...)
	sort.Strings(out)
	return out
}

// TopologyBuilder constructs a placed network and its routing kind from a
// NetworkSpec whose Topology field named this builder.
type TopologyBuilder func(ns NetworkSpec) (*topo.Network, routing.Kind, error)

// TopologyEntry is one registered topology family.
type TopologyEntry struct {
	Build TopologyBuilder
	// Section cites where the paper introduces or evaluates the family.
	Section string
	// Example is a minimal valid NetworkSpec, used by completeness tests
	// and documentation.
	Example NetworkSpec
}

// RoutingFactory builds one routing algorithm for a network: a static
// algorithm returns its compiled route table (and a nil policy), an
// adaptive one its per-packet policy (and a nil table).
type RoutingFactory func(net *topo.Network, kind routing.Kind, vcs int) (*routing.RouteTable, sim.AdaptivePolicy, error)

// RoutingEntry is one registered routing algorithm.
type RoutingEntry struct {
	New     RoutingFactory
	Section string
	// Adaptive marks algorithms that route per packet from live network
	// state. Static algorithms compile to an immutable routing.RouteTable
	// that campaigns share across every point with the same
	// (network, algorithm, VCs) combination; adaptive ones cannot.
	Adaptive bool
}

// TrafficFactory builds a traffic source for a placed network.
type TrafficFactory func(net *topo.Network, ts TrafficSpec) (sim.Source, error)

// TrafficEntry is one registered traffic generator.
type TrafficEntry struct {
	New     TrafficFactory
	Section string
	// Example is a runnable TrafficSpec for this entry.
	Example TrafficSpec
}

// ProcessEntry is one registered temporal injection process — the second
// axis of the Pattern x Process x Sizer workload decomposition. Open-loop
// processes compose with any synthetic pattern and sizer via New;
// closed-loop ones (reqreply) replace the whole source.
type ProcessEntry struct {
	// New builds the process for n nodes from a resolved TrafficSpec.
	// Nil for closed-loop entries.
	New func(n int, ts TrafficSpec) (traffic.Process, error)
	// ClosedLoop marks processes that build a self-throttling source
	// instead of composing with the open-loop Synthetic generator; the
	// traffic factories special-case them.
	ClosedLoop bool
	// Section cites the paper or related-work motivation.
	Section string
	// Example is a runnable TrafficSpec for this entry.
	Example TrafficSpec
}

// SchemeConfig is a resolved buffer organisation: the simulator scheme, the
// per-VC edge-buffer sizing function (nil = simulator default), and the
// central-buffer capacity.
type SchemeConfig struct {
	Scheme sim.BufferScheme
	BufCap func(dist int) int
	CBCap  int
}

// SchemeFactory resolves a BufferingSpec given the effective SMART hop
// factor and VC count.
type SchemeFactory func(b BufferingSpec, h, vcs int) (SchemeConfig, error)

// SchemeEntry is one registered buffering strategy.
type SchemeEntry struct {
	New     SchemeFactory
	Section string
}

// LayoutEntry is one registered Slim NoC physical layout.
type LayoutEntry struct {
	Layout  core.Layout
	Section string
}

var (
	topologies registry[TopologyEntry]
	routings   registry[RoutingEntry]
	traffics   registry[TrafficEntry]
	processes  registry[ProcessEntry]
	schemes    registry[SchemeEntry]
	layouts    registry[LayoutEntry]
)

// RegisterTopology adds (or replaces) a topology family. Registering lets
// NetworkSpec.Topology and spec files refer to the family by name without
// any caller changes.
func RegisterTopology(name string, e TopologyEntry) { topologies.register(name, e) }

// RegisterRouting adds (or replaces) a routing algorithm.
func RegisterRouting(name string, e RoutingEntry) { routings.register(name, e) }

// RegisterTraffic adds (or replaces) a traffic generator.
func RegisterTraffic(name string, e TrafficEntry) { traffics.register(name, e) }

// RegisterProcess adds (or replaces) a temporal injection process.
func RegisterProcess(name string, e ProcessEntry) { processes.register(name, e) }

// RegisterScheme adds (or replaces) a buffering strategy.
func RegisterScheme(name string, e SchemeEntry) { schemes.register(name, e) }

// RegisterLayout adds (or replaces) a Slim NoC layout.
func RegisterLayout(name string, e LayoutEntry) { layouts.register(name, e) }

// Topologies lists registered topology names (sorted).
func Topologies() []string { return topologies.names() }

// Routings lists registered routing algorithm names (sorted).
func Routings() []string { return routings.names() }

// Traffics lists registered traffic generator names (sorted).
func Traffics() []string { return traffics.names() }

// Processes lists registered temporal-process names (sorted).
func Processes() []string { return processes.names() }

// Schemes lists registered buffering strategy names (sorted).
func Schemes() []string { return schemes.names() }

// Layouts lists registered Slim NoC layout names (sorted).
func Layouts() []string { return layouts.names() }

// TopologyByName returns a registered topology entry.
func TopologyByName(name string) (TopologyEntry, bool) { return topologies.lookup(name) }

// TrafficByName returns a registered traffic entry.
func TrafficByName(name string) (TrafficEntry, bool) { return traffics.lookup(name) }

// ProcessByName returns a registered process entry.
func ProcessByName(name string) (ProcessEntry, bool) { return processes.lookup(name) }

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
// Table 2.
func ExpandNetwork(ns NetworkSpec) (NetworkSpec, error) {
	if ns.Preset != "" {
		expanded, err := ResolvePreset(ns.Preset)
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
	e, ok := topologies.lookup(ns.Topology)
	if !ok {
		return nil, routing.Kind{}, fmt.Errorf("slimnoc: unknown topology %q (have %s)",
			ns.Topology, strings.Join(Topologies(), ", "))
	}
	net, kind, err := e.Build(ns)
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

func buildSlimNoC(ns NetworkSpec) (*topo.Network, routing.Kind, error) {
	params := core.Params{Q: ns.Q, P: ns.Conc}
	if params.Q == 0 {
		if ns.Nodes <= 0 {
			return nil, routing.Kind{}, fmt.Errorf("slimnoc: topology sn needs q or nodes")
		}
		p, err := core.FromNetworkSize(ns.Nodes)
		if err != nil {
			return nil, routing.Kind{}, err
		}
		params = p
	} else if params.P == 0 {
		kp, err := core.KPrimeFor(params.Q)
		if err != nil {
			return nil, routing.Kind{}, err
		}
		params.P = (kp + 1) / 2
	}
	layoutName := ns.Layout
	if layoutName == "" {
		layoutName = "subgr"
	}
	le, ok := layouts.lookup(layoutName)
	if !ok {
		return nil, routing.Kind{}, fmt.Errorf("slimnoc: unknown layout %q (have %s)",
			layoutName, strings.Join(Layouts(), ", "))
	}
	s, err := core.New(params)
	if err != nil {
		return nil, routing.Kind{}, err
	}
	seed := ns.LayoutSeed
	if seed == 0 {
		seed = 1
	}
	net, err := s.Network(le.Layout, seed)
	if err != nil {
		return nil, routing.Kind{}, err
	}
	net.Name = fmt.Sprintf("sn_%s_%d", layoutName, s.N())
	return net, routing.Kind{Class: routing.ClassGeneric}, nil
}

func autoRouting(net *topo.Network, kind routing.Kind, vcs int) (*routing.RouteTable, sim.AdaptivePolicy, error) {
	tab, err := routing.NewTable(net, kind, vcs)
	return tab, nil, err
}

func adaptiveRouting(policy func(vcs int) sim.AdaptivePolicy) RoutingFactory {
	return func(_ *topo.Network, _ routing.Kind, vcs int) (*routing.RouteTable, sim.AdaptivePolicy, error) {
		return nil, policy(vcs), nil
	}
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

// ResolveTraffic returns the spec with the runtime defaults of its selected
// process, overlay and size mix filled in — the exact values the traffic
// factories use. It is the inverse direction from RunSpec.Normalized, which
// canonicalizes defaults to ABSENT fields for stable content addressing:
// normalize to hash and compare specs, resolve to display or analyze what a
// run actually did (the CSV sink resolves, so a defaulted burst point
// reports burst_len=8 rather than a physically impossible 0).
func ResolveTraffic(ts TrafficSpec) TrafficSpec {
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

// synthetic returns the factory composing the paper pattern with the spec's
// temporal process, hotspot overlay and packet-size mix — or, for the
// closed-loop reqreply process, the self-throttling request-reply source.
func synthetic(paperName string) TrafficFactory {
	return func(net *topo.Network, ts TrafficSpec) (sim.Source, error) {
		if err := ts.validate(); err != nil {
			return nil, err
		}
		ts = ResolveTraffic(ts)
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

		pe, ok := processes.lookup(ts.Process)
		if ts.Process == "" {
			pe, ok = ProcessEntry{}, true // nil process = Bernoulli composition
		}
		if !ok {
			return nil, fmt.Errorf("slimnoc: unknown traffic process %q (have %s)",
				ts.Process, strings.Join(Processes(), ", "))
		}
		if pe.ClosedLoop {
			return &traffic.ReqReply{N: n, Window: ts.Window, ReqFlits: ts.ShortFlits,
				ReplyFlits: ts.PacketFlits, Pattern: spat}, nil
		}

		if ts.Rate <= 0 {
			return nil, fmt.Errorf("slimnoc: pattern %q needs traffic.rate > 0", paperName)
		}
		var proc traffic.Process
		if pe.New != nil {
			p, err := pe.New(n, ts)
			if err != nil {
				return nil, err
			}
			proc = p
		}
		var sizer traffic.Sizer
		if ts.SizeMix == "bimodal" {
			sizer = traffic.Bimodal{Short: ts.ShortFlits, Long: ts.PacketFlits, ShortFrac: ts.ShortFrac}
		}
		return &traffic.Synthetic{N: n, Rate: ts.Rate, PacketFlits: ts.PacketFlits,
			Pattern: spat, Process: proc, Sizer: sizer}, nil
	}
}

func init() {
	RegisterTopology("sn", TopologyEntry{
		Build:   buildSlimNoC,
		Section: "§3 (Slim NoC construction, layouts §3.2-3.3)",
		Example: NetworkSpec{Topology: "sn", Q: 3, Conc: 3, Layout: "subgr"},
	})
	RegisterTopology("mesh", TopologyEntry{
		Build: func(ns NetworkSpec) (*topo.Network, routing.Kind, error) {
			if err := needGrid(ns); err != nil {
				return nil, routing.Kind{}, err
			}
			return topo.Mesh2D(ns.X, ns.Y, ns.Conc),
				routing.Kind{Class: routing.ClassMesh, RX: ns.X, RY: ns.Y}, nil
		},
		Section: "§5.1, Table 4 (concentrated mesh baseline)",
		Example: NetworkSpec{Topology: "mesh", X: 4, Y: 4, Conc: 2},
	})
	RegisterTopology("torus", TopologyEntry{
		Build: func(ns NetworkSpec) (*topo.Network, routing.Kind, error) {
			if err := needGrid(ns); err != nil {
				return nil, routing.Kind{}, err
			}
			return topo.Torus2D(ns.X, ns.Y, ns.Conc),
				routing.Kind{Class: routing.ClassTorus, RX: ns.X, RY: ns.Y}, nil
		},
		Section: "§5.1, Table 4 (2D torus baseline)",
		Example: NetworkSpec{Topology: "torus", X: 4, Y: 4, Conc: 2},
	})
	RegisterTopology("flatfly", TopologyEntry{
		Build: func(ns NetworkSpec) (*topo.Network, routing.Kind, error) {
			if err := needGrid(ns); err != nil {
				return nil, routing.Kind{}, err
			}
			return topo.FBF(ns.X, ns.Y, ns.Conc),
				routing.Kind{Class: routing.ClassFBF, RX: ns.X, RY: ns.Y}, nil
		},
		Section: "§5.1, Table 4 (flattened butterfly baseline)",
		Example: NetworkSpec{Topology: "flatfly", X: 4, Y: 4, Conc: 2},
	})
	RegisterTopology("pflatfly", TopologyEntry{
		Build: func(ns NetworkSpec) (*topo.Network, routing.Kind, error) {
			if err := needGrid(ns); err != nil {
				return nil, routing.Kind{}, err
			}
			if ns.PartsX <= 0 || ns.PartsY <= 0 {
				return nil, routing.Kind{}, fmt.Errorf("slimnoc: topology pflatfly needs parts_x and parts_y")
			}
			return topo.PFBF(ns.PartsX, ns.PartsY, ns.X, ns.Y, ns.Conc),
				routing.Kind{Class: routing.ClassPFBF, RX: ns.X, RY: ns.Y, PX: ns.PartsX, PY: ns.PartsY}, nil
		},
		Section: "§5.1, Table 4 (partitioned flattened butterfly baseline)",
		Example: NetworkSpec{Topology: "pflatfly", PartsX: 2, PartsY: 1, X: 3, Y: 3, Conc: 3},
	})
	RegisterTopology("dragonfly", TopologyEntry{
		Build: func(ns NetworkSpec) (*topo.Network, routing.Kind, error) {
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
		},
		Section: "§2.2, Fig. 3 (Dragonfly straight on-chip)",
		Example: NetworkSpec{Topology: "dragonfly", Conc: 4, Extra: map[string]int{"a": 5, "h": 2, "g": 10}},
	})
	RegisterTopology("clos", TopologyEntry{
		Build: func(ns NetworkSpec) (*topo.Network, routing.Kind, error) {
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
			return topo.FoldedClos(leaves, spines, ns.Conc),
				routing.Kind{Class: routing.ClassGeneric}, nil
		},
		Section: "§5.5 (folded Clos comparison; analytical models only)",
		Example: NetworkSpec{Topology: "clos", Conc: 8, Extra: map[string]int{"leaves": 25, "spines": 7}},
	})

	RegisterLayout("basic", LayoutEntry{Layout: core.LayoutBasic, Section: "§3.2.1 (baseline placement)"})
	RegisterLayout("subgr", LayoutEntry{Layout: core.LayoutSubgroup, Section: "§3.3 (subgroup layout)"})
	RegisterLayout("gr", LayoutEntry{Layout: core.LayoutGroup, Section: "§3.3 (group layout)"})
	RegisterLayout("rand", LayoutEntry{Layout: core.LayoutRand, Section: "§3.3 (randomized layout)"})

	RegisterRouting("auto", RoutingEntry{
		New:     autoRouting,
		Section: "§4.3, §5.1 (topology-appropriate deadlock-free static minimal)",
	})
	RegisterRouting("minimal", RoutingEntry{
		New: func(net *topo.Network, _ routing.Kind, vcs int) (*routing.RouteTable, sim.AdaptivePolicy, error) {
			tab, err := routing.CompileCompact(net, vcs)
			return tab, nil, err
		},
		Section: "§5.1 (generic minimal with ascending VCs)",
	})
	RegisterRouting("ugal-l", RoutingEntry{
		New: adaptiveRouting(func(vcs int) sim.AdaptivePolicy {
			return &sim.UGAL{Global: false, VCs: vcs}
		}),
		Section:  "§6, Fig. 20 (UGAL, local congestion knowledge)",
		Adaptive: true,
	})
	RegisterRouting("ugal-g", RoutingEntry{
		New: adaptiveRouting(func(vcs int) sim.AdaptivePolicy {
			return &sim.UGAL{Global: true, VCs: vcs}
		}),
		Section:  "§6, Fig. 20 (UGAL, global congestion knowledge)",
		Adaptive: true,
	})
	RegisterRouting("min-adapt", RoutingEntry{
		New: adaptiveRouting(func(vcs int) sim.AdaptivePolicy {
			return &sim.MinAdaptive{VCs: vcs}
		}),
		Section:  "§6, Fig. 20 (minimal adaptive, XY-ADAPT analogue)",
		Adaptive: true,
	})

	RegisterScheme("eb", SchemeEntry{
		New: func(b BufferingSpec, h, vcs int) (SchemeConfig, error) {
			cfg := SchemeConfig{Scheme: sim.EdgeBuffers, CBCap: b.CBCap}
			if b.EdgeCap > 0 {
				c := b.EdgeCap
				cfg.BufCap = func(int) int { return c }
			}
			return cfg, nil
		},
		Section: "§5.1 (EB-Small: 5-flit per-VC edge buffers)",
	})
	RegisterScheme("eb-large", SchemeEntry{
		New: func(b BufferingSpec, h, vcs int) (SchemeConfig, error) {
			return SchemeConfig{Scheme: sim.EdgeBuffers, BufCap: func(int) int { return 15 }, CBCap: b.CBCap}, nil
		},
		Section: "§5.1 (EB-Large: 15-flit per-VC edge buffers)",
	})
	RegisterScheme("eb-var", SchemeEntry{
		New: func(b BufferingSpec, h, vcs int) (SchemeConfig, error) {
			return SchemeConfig{Scheme: sim.EdgeBuffers, BufCap: sim.EdgeBufVar(h, vcs), CBCap: b.CBCap}, nil
		},
		Section: "§3.2.2 (EB-Var: wire-length-proportional buffers)",
	})
	RegisterScheme("el", SchemeEntry{
		New: func(b BufferingSpec, h, vcs int) (SchemeConfig, error) {
			return SchemeConfig{Scheme: sim.ElasticLinks, CBCap: b.CBCap}, nil
		},
		Section: "§4.2 (ElastiStore-style elastic links)",
	})
	RegisterScheme("cbr", SchemeEntry{
		New: func(b BufferingSpec, h, vcs int) (SchemeConfig, error) {
			return SchemeConfig{Scheme: sim.CentralBuffer, CBCap: b.CBCap}, nil
		},
		Section: "§4.1 (central-buffer router, 2-cycle bypass)",
	})
	// CLI-compatible aliases for the historical snsim scheme names.
	if e, ok := schemes.lookup("eb-large"); ok {
		RegisterScheme("eblarge", e)
	}
	if e, ok := schemes.lookup("eb-var"); ok {
		RegisterScheme("ebvar", e)
	}

	RegisterTraffic("rnd", TrafficEntry{
		New: synthetic("RND"), Section: "§5.1 (uniform random)",
		Example: TrafficSpec{Pattern: "rnd", Rate: 0.06},
	})
	RegisterTraffic("shf", TrafficEntry{
		New: synthetic("SHF"), Section: "§5.1 (bit shuffle)",
		Example: TrafficSpec{Pattern: "shf", Rate: 0.06},
	})
	RegisterTraffic("rev", TrafficEntry{
		New: synthetic("REV"), Section: "§5.1 (bit reversal)",
		Example: TrafficSpec{Pattern: "rev", Rate: 0.06},
	})
	RegisterTraffic("adv1", TrafficEntry{
		New: synthetic("ADV1"), Section: "§5.1 (adversarial: farthest-partner permutation)",
		Example: TrafficSpec{Pattern: "adv1", Rate: 0.06},
	})
	RegisterTraffic("adv2", TrafficEntry{
		New: synthetic("ADV2"), Section: "§5.1 (adversarial: cross-die offset)",
		Example: TrafficSpec{Pattern: "adv2", Rate: 0.06},
	})
	RegisterTraffic("asym", TrafficEntry{
		New: synthetic("ASYM"), Section: "§6, Fig. 20 (asymmetric)",
		Example: TrafficSpec{Pattern: "asym", Rate: 0.06},
	})
	RegisterProcess("bernoulli", ProcessEntry{
		// Explicit spelling of the default: specs normalize it back to the
		// empty string, and the nil process inside Synthetic is Bernoulli.
		Section: "§5.1 (open-loop memoryless injection)",
		Example: TrafficSpec{Pattern: "rnd", Rate: 0.06, Process: "bernoulli"},
	})
	RegisterProcess("burst", ProcessEntry{
		New: func(n int, ts TrafficSpec) (traffic.Process, error) {
			bl := ts.BurstLen
			if bl == 0 {
				bl = defaultBurstLen
			}
			duty := ts.Duty
			if duty == 0 {
				duty = defaultDuty
			}
			return traffic.NewOnOff(n, bl, duty), nil
		},
		Section: "related work (bursty on/off arrivals, geometric burst lengths)",
		Example: TrafficSpec{Pattern: "rnd", Rate: 0.06, Process: "burst", BurstLen: 8, Duty: 0.25},
	})
	RegisterProcess("mmpp", ProcessEntry{
		New: func(n int, ts TrafficSpec) (traffic.Process, error) {
			f := ts.ModFactor
			if f == 0 {
				f = defaultModFactor
			}
			p := ts.ModPeriod
			if p == 0 {
				p = defaultModPeriod
			}
			return traffic.NewModulated(f, p), nil
		},
		Section: "related work (Markov-modulated injection epochs)",
		Example: TrafficSpec{Pattern: "rnd", Rate: 0.06, Process: "mmpp", ModFactor: 1.8, ModPeriod: 200},
	})
	RegisterProcess("reqreply", ProcessEntry{
		ClosedLoop: true,
		Section:    "related work (closed-loop memory traffic, cf. §5.1 read/reply sizes)",
		Example:    TrafficSpec{Pattern: "rnd", Process: "reqreply", Window: 4},
	})

	RegisterTraffic("trace", TrafficEntry{
		New: func(net *topo.Network, ts TrafficSpec) (sim.Source, error) {
			b := trace.BenchmarkByName(ts.Trace)
			if b == nil {
				return nil, fmt.Errorf("slimnoc: unknown trace benchmark %q", ts.Trace)
			}
			return trace.NewSource(*b, net.N()), nil
		},
		Section: "§5.1 (PARSEC/SPLASH trace substitute)",
		Example: TrafficSpec{Pattern: "trace", Trace: "fft"},
	})
}
