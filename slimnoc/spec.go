package slimnoc

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
)

// RunSpec is the declarative description of one simulation run. It is
// JSON-serializable and round-trippable: a spec saved from one run rebuilds
// the identical network, routing, traffic and simulator configuration, so
// re-running it with the same seed reproduces the same metrics.
type RunSpec struct {
	// Name optionally labels the run (reports, result files).
	Name      string        `json:"name,omitempty"`
	Network   NetworkSpec   `json:"network"`
	Routing   RoutingSpec   `json:"routing,omitempty"`
	Buffering BufferingSpec `json:"buffering,omitempty"`
	Traffic   TrafficSpec   `json:"traffic,omitempty"`
	// SMART enables SMART links: flits traverse HopFactor grid hops per
	// cycle (§3.2.2, default 9 at 45 nm).
	SMART bool `json:"smart,omitempty"`
	// HopFactor overrides the SMART hop factor H (0 = 9 with SMART, 1
	// without).
	HopFactor int     `json:"hop_factor,omitempty"`
	Sim       SimSpec `json:"sim,omitempty"`
}

// NetworkSpec selects and parameterises a topology. Either Preset names a
// ready-made configuration (the Table 4 shorthand: cm3, t2d9, fbf8, pfbf4,
// sn_subgr_200, ...) or Topology names a family with explicit parameters.
type NetworkSpec struct {
	// Preset expands to a full NetworkSpec (see ExpandNetwork); explicitly
	// set fields below then override the preset's values.
	Preset string `json:"preset,omitempty"`
	// Topology names the family: sn, mesh, torus, flatfly, pflatfly,
	// dragonfly, clos.
	Topology string `json:"topology,omitempty"`
	// X, Y are the router grid dimensions (mesh, torus, flatfly; the
	// per-partition grid for pflatfly).
	X int `json:"x,omitempty"`
	Y int `json:"y,omitempty"`
	// Conc is the concentration p: nodes per router.
	Conc int `json:"conc,omitempty"`
	// PartsX, PartsY are the partition grid dimensions (pflatfly only).
	PartsX int `json:"parts_x,omitempty"`
	PartsY int `json:"parts_y,omitempty"`
	// Q is the Slim NoC structural parameter (sn only); Nodes is the
	// alternative: the target node count, resolved via Table 2.
	Q     int `json:"q,omitempty"`
	Nodes int `json:"nodes,omitempty"`
	// Layout names the Slim NoC layout (sn only): basic, subgr, gr, rand.
	Layout string `json:"layout,omitempty"`
	// LayoutSeed seeds randomized layouts (sn rand; default 1).
	LayoutSeed int64 `json:"layout_seed,omitempty"`
	// Extra carries topology-specific integer parameters: dragonfly uses
	// a/h/g, clos uses leaves/spines.
	Extra map[string]int `json:"extra,omitempty"`
	// FailFrac removes this fraction of the built network's router-router
	// links, in [0, 1) (the §2.1 resilience study). A damaged network
	// routes as a generic graph: its grid structure, if any, is gone.
	FailFrac float64 `json:"fail_frac,omitempty"`
	// FailSeed seeds the uniform choice of the failed links.
	FailSeed int64 `json:"fail_seed,omitempty"`
}

// validateFailures checks the link-failure fraction.
func (ns NetworkSpec) validateFailures() error {
	if !(ns.FailFrac >= 0 && ns.FailFrac < 1) { // also rejects NaN
		return fmt.Errorf("slimnoc: network.fail_frac = %g out of [0, 1)", ns.FailFrac)
	}
	return nil
}

// RoutingSpec selects a routing algorithm.
type RoutingSpec struct {
	// Algorithm names the algorithm: auto (topology-appropriate
	// deadlock-free default), minimal, ugal-l, ugal-g, min-adapt.
	Algorithm string `json:"algorithm,omitempty"`
	// VCs is the virtual-channel count (default 2).
	VCs int `json:"vcs,omitempty"`
}

// BufferingSpec selects a buffer organisation.
type BufferingSpec struct {
	// Scheme names the scheme: eb, eb-large, eb-var, el, cbr (eblarge and
	// ebvar are accepted spellings of eb-large and eb-var).
	Scheme string `json:"scheme,omitempty"`
	// EdgeCap overrides the per-VC edge-buffer capacity in flits (eb only;
	// 0 = EB-Small's 5 flits, the default of the buffer plan core.Buffers,
	// see BufferPlan).
	EdgeCap int `json:"edge_cap,omitempty"`
	// CBCap is the central-buffer capacity in flits (cbr only; 0 = the
	// buffer plan's default of 20).
	CBCap int `json:"cb_cap,omitempty"`
}

// TrafficSpec composes a workload from the three orthogonal traffic axes —
// spatial Pattern, temporal Process, packet-size mix — plus the hotspot
// overlay and the closed-loop request-reply window. Every new field is
// omitted from JSON (and from content-addressed point keys) at its zero
// value, so specs written before the decomposition keep their exact
// canonical bytes and stored results.
type TrafficSpec struct {
	// Pattern names the traffic generator: rnd, shf, rev, adv1, adv2, asym,
	// or trace.
	Pattern string `json:"pattern,omitempty"`
	// Rate is the offered load in flits/node/cycle (open-loop processes;
	// ignored by reqreply, which self-throttles).
	Rate float64 `json:"rate,omitempty"`
	// PacketFlits is the data-packet size in flits (default 6, §5.1). It is
	// the fixed size, the bimodal long size, and the reqreply reply size.
	PacketFlits int `json:"packet_flits,omitempty"`
	// Trace names the PARSEC/SPLASH benchmark for pattern "trace":
	// barnes, fft, lu, radix, water-n, water-s.
	Trace string `json:"trace,omitempty"`

	// Process names the temporal injection process: bernoulli (the
	// default; canonicalized to the empty string so pre-decomposition specs
	// hash identically), burst, mmpp, or the closed-loop reqreply.
	Process string `json:"process,omitempty"`
	// BurstLen is the mean burst length in cycles for process burst
	// (default 8).
	BurstLen float64 `json:"burst_len,omitempty"`
	// Duty is the long-run on-fraction for process burst, in (0, 1]
	// (default 0.25).
	Duty float64 `json:"duty,omitempty"`
	// ModFactor is the high-state rate multiplier for process mmpp, in
	// [1, 2] (default 1.8; the low state uses 2-ModFactor).
	ModFactor float64 `json:"mod_factor,omitempty"`
	// ModPeriod is the mean per-state dwell time in cycles for process mmpp
	// (default 200).
	ModPeriod float64 `json:"mod_period,omitempty"`

	// HotspotFraction concentrates this share of destinations on the
	// HotspotCount hot nodes (0 disables the overlay). Composes with any
	// synthetic pattern.
	HotspotFraction float64 `json:"hotspot_fraction,omitempty"`
	// HotspotCount is the hot-node count K (nodes 0..K-1; default 4 when
	// the overlay is active).
	HotspotCount int `json:"hotspot_count,omitempty"`

	// SizeMix selects the packet-size model: fixed (the default;
	// canonicalized to the empty string) or bimodal.
	SizeMix string `json:"size_mix,omitempty"`
	// ShortFlits is the control-packet size for size_mix bimodal and the
	// request size for process reqreply (default 2).
	ShortFlits int `json:"short_flits,omitempty"`
	// ShortFrac is the probability a bimodal packet is short (default 0.5).
	ShortFrac float64 `json:"short_frac,omitempty"`

	// Window is the per-node outstanding-request bound W for process
	// reqreply (default 4).
	Window int `json:"window,omitempty"`
}

// SimSpec sets the simulation phases and seed. Zero cycle values fall back
// to the simulator's full-methodology defaults.
type SimSpec struct {
	WarmupCycles  int64 `json:"warmup_cycles,omitempty"`
	MeasureCycles int64 `json:"measure_cycles,omitempty"`
	DrainCycles   int64 `json:"drain_cycles,omitempty"`
	// Seed drives every random decision of the run (injection processes,
	// adaptive choices).
	Seed int64 `json:"seed,omitempty"`
	// InjQueueCap is the NIC injection queue capacity in flits (default 20).
	InjQueueCap int `json:"inj_queue_cap,omitempty"`
}

// QuickSim returns the short warmup/measure/drain phases used by examples
// and the benchmark harness.
func QuickSim() SimSpec {
	return SimSpec{WarmupCycles: 1000, MeasureCycles: 3000, DrainCycles: 4000}
}

// FullSim returns the paper-methodology phases (§5.1).
func FullSim() SimSpec {
	return SimSpec{WarmupCycles: 5000, MeasureCycles: 20000, DrainCycles: 30000}
}

// DefaultSpec returns the facade's baseline run: the SN-S design under
// uniform random traffic at a moderate load, quick cycles.
func DefaultSpec() RunSpec {
	spec := RunSpec{
		Network: NetworkSpec{Preset: "sn_subgr_200"},
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.06},
		Sim:     QuickSim(),
	}
	spec.Sim.Seed = 1
	return spec.Normalized()
}

// Normalized returns a copy with every defaultable field filled in and every
// name in its canonical spelling (lower case; a scheme alias replaced by
// its scheme's name), so that two specs that configure the same run compare
// equal and a normalized spec survives a JSON round trip unchanged.
func (s RunSpec) Normalized() RunSpec {
	if s.Routing.Algorithm == "" {
		s.Routing.Algorithm = "auto"
	}
	s.Routing.Algorithm = strings.ToLower(s.Routing.Algorithm)
	if s.Routing.VCs == 0 {
		s.Routing.VCs = 2
	}
	s.Buffering.Scheme = schemes.canonical(cmp.Or(s.Buffering.Scheme, "eb"))
	if s.Traffic.Pattern == "" && s.Traffic.Trace == "" {
		s.Traffic.Pattern = "rnd"
	}
	if s.Traffic.Pattern == "" && s.Traffic.Trace != "" {
		s.Traffic.Pattern = "trace"
	}
	s.Traffic.Pattern = strings.ToLower(s.Traffic.Pattern)
	if s.Traffic.PacketFlits == 0 {
		s.Traffic.PacketFlits = 6
	}
	// The default process and size mix canonicalize to the EMPTY string,
	// not the other way round: filling them in would change the canonical
	// bytes — and so the content-addressed PointKey — of every spec written
	// before the workload decomposition, orphaning existing result stores.
	s.Traffic.Process = strings.ToLower(s.Traffic.Process)
	if s.Traffic.Process == "bernoulli" {
		s.Traffic.Process = ""
	}
	s.Traffic.SizeMix = strings.ToLower(s.Traffic.SizeMix)
	if s.Traffic.SizeMix == "fixed" {
		s.Traffic.SizeMix = ""
	}
	// Clear workload fields the selected pattern/process/mix never reads (a
	// burst length under bernoulli, a window under an open loop, a process
	// under a trace, ...): two specs that run identically must share one
	// canonical form, one PointKey and one label. A consequence: an
	// out-of-range value in an inert field is dropped with the field rather
	// than rejected.
	if s.Traffic.Pattern == "trace" {
		// Trace workloads replay their own recorded request/reply model;
		// the whole composable axis is inert. Rate is left untouched: it
		// predates the decomposition (and was always ignored by traces),
		// so clearing it would reshape pre-existing canonical bytes.
		s.Traffic.Process = ""
		s.Traffic.HotspotFraction = 0
		s.Traffic.SizeMix = ""
	}
	if s.Traffic.Process == "reqreply" {
		// The closed loop self-throttles: the open-loop rate and the size
		// mix are inert (ShortFlits stays live as the request size).
		s.Traffic.Rate = 0
		s.Traffic.SizeMix = ""
	}
	if s.Traffic.Process != "burst" {
		s.Traffic.BurstLen, s.Traffic.Duty = 0, 0
	}
	if s.Traffic.Process != "mmpp" {
		s.Traffic.ModFactor, s.Traffic.ModPeriod = 0, 0
	}
	if s.Traffic.Process != "reqreply" {
		s.Traffic.Window = 0
	}
	if s.Traffic.HotspotFraction == 0 {
		s.Traffic.HotspotCount = 0
	}
	if s.Traffic.SizeMix != "bimodal" {
		s.Traffic.ShortFrac = 0
		if s.Traffic.Process != "reqreply" { // reqreply reads the request size
			s.Traffic.ShortFlits = 0
		}
	}
	s.Network.Preset = strings.ToLower(s.Network.Preset)
	s.Network.Topology = strings.ToLower(s.Network.Topology)
	s.Network.Layout = strings.ToLower(s.Network.Layout)
	if s.Network.FailFrac == 0 {
		s.Network.FailSeed = 0 // inert without failures
	}
	return s
}

// hopsPerCycle resolves the effective SMART hop factor H for the spec.
func (s RunSpec) hopsPerCycle() int {
	h := 1
	if s.SMART {
		h = 9
	}
	if s.HopFactor > 0 {
		h = s.HopFactor
	}
	return h
}

// BufferPlan resolves the spec's buffer plan: its scheme, VC count, SMART
// hop factor and capacity overrides. The engine allocates its buffers from
// this plan and the power model prices its flits (core.Buffers), so a run
// is priced as it was simulated. A negative capacity is an error.
func (s RunSpec) BufferPlan() (core.Buffers, error) {
	s = s.Normalized()
	bs, err := schemes.lookup(s.Buffering.Scheme)
	if err != nil {
		return core.Buffers{}, err
	}
	if b := s.Buffering; b.EdgeCap < 0 || b.CBCap < 0 {
		return core.Buffers{}, fmt.Errorf("slimnoc: buffering.edge_cap = %d, cb_cap = %d: capacities must be >= 0 (0 selects the default)", b.EdgeCap, b.CBCap)
	}
	return core.Buffers{Scheme: bs.scheme, VCs: s.Routing.VCs, H: s.hopsPerCycle(),
		EdgeCap: s.Buffering.EdgeCap, CBCap: s.Buffering.CBCap}, nil
}

// Validate reports the first structural problem with the spec without
// building anything expensive.
func (s RunSpec) Validate() error {
	s = s.Normalized()
	if s.Network.Preset == "" && s.Network.Topology == "" {
		return fmt.Errorf("slimnoc: spec needs network.preset or network.topology")
	}
	if s.Network.Preset != "" {
		if _, err := resolvePreset(s.Network.Preset); err != nil {
			return err
		}
	} else if _, err := topologies.lookup(s.Network.Topology); err != nil {
		return err
	}
	if err := s.Network.validateFailures(); err != nil {
		return err
	}
	// Zero selects the default; a negative count or factor would run as if
	// it did, or not at all.
	if s.HopFactor < 0 {
		return fmt.Errorf("slimnoc: hop_factor = %d, want >= 0", s.HopFactor)
	}
	for _, c := range []struct {
		field string
		n     int64
	}{{"warmup_cycles", s.Sim.WarmupCycles}, {"measure_cycles", s.Sim.MeasureCycles}, {"drain_cycles", s.Sim.DrainCycles}} {
		if c.n < 0 {
			return fmt.Errorf("slimnoc: sim.%s = %d, want >= 0", c.field, c.n)
		}
	}
	if _, err := engineConfig(s); err != nil {
		return err
	}
	if _, err := traffics.lookup(s.Traffic.Pattern); err != nil {
		return err
	}
	return s.Traffic.validate()
}

// maxPacketFlits is the largest packet the engine simulates: its flit
// indices are 16-bit.
const maxPacketFlits = 1<<16 - 1

// validate checks the workload-axis fields of an already normalized
// TrafficSpec: the process name, and parameter ranges (zero always means
// "use the default" and is valid).
func (ts TrafficSpec) validate() error {
	if _, err := processes.lookup(cmp.Or(ts.Process, "bernoulli")); err != nil {
		return err
	}
	if ts.PacketFlits < 0 || ts.PacketFlits > maxPacketFlits {
		return fmt.Errorf("slimnoc: traffic.packet_flits = %d out of range [1, %d]", ts.PacketFlits, maxPacketFlits)
	}
	if ts.BurstLen != 0 && ts.BurstLen < 1 {
		return fmt.Errorf("slimnoc: traffic.burst_len = %g, want >= 1", ts.BurstLen)
	}
	if ts.Duty != 0 && (ts.Duty < 0 || ts.Duty > 1) {
		return fmt.Errorf("slimnoc: traffic.duty = %g out of (0, 1]", ts.Duty)
	}
	if ts.ModFactor != 0 && (ts.ModFactor < 1 || ts.ModFactor > 2) {
		return fmt.Errorf("slimnoc: traffic.mod_factor = %g out of [1, 2]", ts.ModFactor)
	}
	if ts.ModPeriod != 0 && ts.ModPeriod < 1 {
		return fmt.Errorf("slimnoc: traffic.mod_period = %g, want >= 1", ts.ModPeriod)
	}
	if ts.HotspotFraction < 0 || ts.HotspotFraction > 1 {
		return fmt.Errorf("slimnoc: traffic.hotspot_fraction = %g out of [0, 1]", ts.HotspotFraction)
	}
	if ts.HotspotCount < 0 {
		return fmt.Errorf("slimnoc: traffic.hotspot_count = %d, want >= 0", ts.HotspotCount)
	}
	switch ts.SizeMix {
	case "", "bimodal":
	default:
		return fmt.Errorf("slimnoc: unknown traffic size_mix %q (have fixed, bimodal)", ts.SizeMix)
	}
	if ts.ShortFlits < 0 || (ts.ShortFlits > 0 && ts.ShortFlits >= ts.PacketFlits) {
		return fmt.Errorf("slimnoc: traffic.short_flits = %d, want in [1, packet_flits=%d)",
			ts.ShortFlits, ts.PacketFlits)
	}
	if ts.ShortFrac != 0 && (ts.ShortFrac < 0 || ts.ShortFrac > 1) {
		return fmt.Errorf("slimnoc: traffic.short_frac = %g out of [0, 1]", ts.ShortFrac)
	}
	if ts.Window < 0 {
		return fmt.Errorf("slimnoc: traffic.window = %d, want >= 0", ts.Window)
	}
	return nil
}

// ParseSpec decodes a RunSpec from JSON, rejecting unknown fields so typos
// in hand-written spec files fail loudly instead of being ignored.
//
// keep: the strict reader for a spec an importer wrote with encoding/json
// (see the package example); the commands reach it through SpecFlags' -spec.
func ParseSpec(data []byte) (RunSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s RunSpec
	if err := dec.Decode(&s); err != nil {
		return RunSpec{}, fmt.Errorf("slimnoc: parsing spec: %w", err)
	}
	return s.Normalized(), nil
}

// loadSpec reads and parses a spec file.
func loadSpec(path string) (RunSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return RunSpec{}, fmt.Errorf("slimnoc: loading spec: %w", err)
	}
	return ParseSpec(data)
}

// saveSpec writes the spec as indented JSON to path.
func saveSpec(path string, s RunSpec) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
