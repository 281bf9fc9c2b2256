package slimnoc

import (
	"flag"
	"fmt"
	"strings"
)

// SpecFlags is the shared command-line front end to RunSpec: every binary
// binds the flag groups it needs onto its FlagSet and resolves them into a
// spec with Spec. A `-spec run.json` file provides the base configuration;
// explicitly set flags override individual fields of it.
type SpecFlags struct {
	SpecPath string
	SaveSpec string
	Seed     int64
	Full     bool

	// Network flags.
	Net        string
	Q          int
	Conc       int
	Layout     string
	LayoutSeed int64
	SMART      bool

	// Run flags.
	Pattern  string
	Trace    string
	Rate     float64
	VCs      int
	Scheme   string
	EdgeCap  int
	CBCap    int
	H        int
	Adaptive string
	Cycles   int64

	// Workload-axis flags (temporal process, hotspot overlay, size mix,
	// request-reply window).
	Process  string
	BurstLen float64
	Duty     float64
	ModFact  float64
	ModPer   float64
	HotFrac  float64
	HotCount int
	SizeMix  string
	Window   int

	bound map[string]*flag.FlagSet
}

// NewSpecFlags returns an empty flag binder.
func NewSpecFlags() *SpecFlags {
	return &SpecFlags{bound: make(map[string]*flag.FlagSet)}
}

func (s *SpecFlags) track(fs *flag.FlagSet, names ...string) {
	for _, n := range names {
		s.bound[n] = fs
	}
}

// BindCommon registers the flags every binary shares: -spec, -save-spec,
// -seed and -full.
func (s *SpecFlags) BindCommon(fs *flag.FlagSet) *SpecFlags {
	fs.StringVar(&s.SpecPath, "spec", "", "load a run spec from this JSON file")
	fs.StringVar(&s.SaveSpec, "save-spec", "", "write the resolved run spec to this JSON file")
	fs.Int64Var(&s.Seed, "seed", 1, "random seed")
	fs.BoolVar(&s.Full, "full", false, "full paper methodology (longer runs) instead of quick mode")
	s.track(fs, "spec", "save-spec", "seed", "full")
	return s
}

// BindNetwork registers the topology selection flags.
func (s *SpecFlags) BindNetwork(fs *flag.FlagSet) *SpecFlags {
	fs.StringVar(&s.Net, "net", "", "network preset (Table 4 names or sn_<layout>_<N>)")
	fs.IntVar(&s.Q, "q", 0, "Slim NoC parameter q (builds topology sn instead of -net)")
	fs.IntVar(&s.Conc, "p", 0, "concentration: nodes per router (default ideal)")
	fs.StringVar(&s.Layout, "layout", "", "Slim NoC layout: "+strings.Join(layouts.names, ", "))
	fs.Int64Var(&s.LayoutSeed, "layout-seed", 0, "seed for randomized layouts")
	fs.BoolVar(&s.SMART, "smart", false, "enable SMART links (H=9)")
	s.track(fs, "net", "q", "p", "layout", "layout-seed", "smart")
	return s
}

// BindRun registers the traffic, routing, buffering and cycle-count flags.
func (s *SpecFlags) BindRun(fs *flag.FlagSet) *SpecFlags {
	fs.StringVar(&s.Pattern, "pattern", "", "traffic pattern: "+strings.Join(traffics.names, ", "))
	fs.StringVar(&s.Trace, "trace", "", "trace benchmark for -pattern trace")
	fs.Float64Var(&s.Rate, "rate", 0, "offered load in flits/node/cycle")
	fs.IntVar(&s.VCs, "vcs", 0, "virtual channels")
	fs.StringVar(&s.Scheme, "scheme", "", "buffering: "+strings.Join(schemes.names, ", "))
	fs.IntVar(&s.EdgeCap, "edge-cap", 0, "per-VC edge buffer capacity override in flits")
	fs.IntVar(&s.CBCap, "cb", 0, "central buffer capacity in flits (cbr scheme)")
	fs.IntVar(&s.H, "hop-factor", 0, "explicit SMART hop factor H")
	fs.StringVar(&s.Adaptive, "adaptive", "", "adaptive routing: ugal-l, ugal-g, min-adapt")
	fs.Int64Var(&s.Cycles, "cycles", 0, "measurement cycles (0 = mode default)")
	fs.StringVar(&s.Process, "process", "", "temporal injection process: "+strings.Join(processes.names, ", "))
	fs.Float64Var(&s.BurstLen, "burst-len", 0, "mean burst length in cycles (process burst; default 8)")
	fs.Float64Var(&s.Duty, "duty", 0, "burst on-fraction in (0,1] (process burst; default 0.25)")
	fs.Float64Var(&s.ModFact, "mod-factor", 0, "high-state rate multiplier in [1,2] (process mmpp; default 1.8)")
	fs.Float64Var(&s.ModPer, "mod-period", 0, "mean per-state dwell in cycles (process mmpp; default 200)")
	fs.Float64Var(&s.HotFrac, "hotspot-frac", 0, "fraction of traffic aimed at the hot nodes")
	fs.IntVar(&s.HotCount, "hotspot-count", 0, "hot node count K (default 4 when -hotspot-frac is set)")
	fs.StringVar(&s.SizeMix, "size-mix", "", "packet-size mix: fixed, bimodal")
	fs.IntVar(&s.Window, "window", 0, "outstanding requests per node W (process reqreply; default 4)")
	s.track(fs, "pattern", "trace", "rate", "vcs", "scheme", "edge-cap", "cb", "hop-factor", "adaptive", "cycles",
		"process", "burst-len", "duty", "mod-factor", "mod-period",
		"hotspot-frac", "hotspot-count", "size-mix", "window")
	return s
}

// set reports whether the named flag was explicitly provided on the command
// line of the FlagSet it was bound to.
func (s *SpecFlags) set(name string) bool {
	fs, ok := s.bound[name]
	if !ok {
		return false
	}
	found := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			found = true
		}
	})
	return found
}

// Spec resolves the bound flags into a RunSpec: the defaults, overlaid by
// the -spec file (if given), overlaid by every explicitly set flag. Call
// after flag parsing.
func (s *SpecFlags) Spec(defaults RunSpec) (RunSpec, error) {
	spec := defaults.Normalized()
	if s.SpecPath != "" {
		loaded, err := loadSpec(s.SpecPath)
		if err != nil {
			return RunSpec{}, err
		}
		spec = loaded
	}
	if s.set("net") {
		spec.Network = NetworkSpec{Preset: s.Net}
	}
	if s.set("q") {
		spec.Network = NetworkSpec{Topology: "sn", Q: s.Q, Conc: s.Conc,
			Layout: s.Layout, LayoutSeed: s.LayoutSeed}
		if spec.Network.Layout == "" {
			spec.Network.Layout = "subgr"
		}
	} else {
		if s.set("p") {
			spec.Network.Conc = s.Conc
		}
		if s.set("layout") {
			spec.Network.Layout = s.Layout
			if spec.Network.Preset == "" && spec.Network.Topology == "" {
				spec.Network.Topology = "sn"
			}
		}
		if s.set("layout-seed") {
			spec.Network.LayoutSeed = s.LayoutSeed
		}
	}
	if s.set("smart") {
		spec.SMART = s.SMART
	}
	if s.set("hop-factor") {
		spec.HopFactor = s.H
	}
	if s.set("pattern") {
		spec.Traffic.Pattern = s.Pattern
	}
	if s.set("trace") {
		spec.Traffic.Trace = s.Trace
		if !s.set("pattern") {
			spec.Traffic.Pattern = "trace"
		}
	}
	if s.set("rate") {
		spec.Traffic.Rate = s.Rate
	}
	if s.set("process") {
		spec.Traffic.Process = s.Process
	}
	if s.set("burst-len") {
		spec.Traffic.BurstLen = s.BurstLen
	}
	if s.set("duty") {
		spec.Traffic.Duty = s.Duty
	}
	if s.set("mod-factor") {
		spec.Traffic.ModFactor = s.ModFact
	}
	if s.set("mod-period") {
		spec.Traffic.ModPeriod = s.ModPer
	}
	if s.set("hotspot-frac") {
		spec.Traffic.HotspotFraction = s.HotFrac
	}
	if s.set("hotspot-count") {
		spec.Traffic.HotspotCount = s.HotCount
	}
	if s.set("size-mix") {
		spec.Traffic.SizeMix = s.SizeMix
	}
	if s.set("window") {
		spec.Traffic.Window = s.Window
	}
	if s.set("vcs") {
		spec.Routing.VCs = s.VCs
	}
	if s.set("adaptive") {
		spec.Routing.Algorithm = s.Adaptive
	}
	if s.set("scheme") {
		spec.Buffering.Scheme = s.Scheme
	}
	if s.set("edge-cap") {
		spec.Buffering.EdgeCap = s.EdgeCap
	}
	if s.set("cb") {
		spec.Buffering.CBCap = s.CBCap
	}
	if s.set("seed") || spec.Sim.Seed == 0 {
		spec.Sim.Seed = s.Seed
	}
	if s.Full {
		full := FullSim()
		spec.Sim.WarmupCycles = full.WarmupCycles
		spec.Sim.MeasureCycles = full.MeasureCycles
		spec.Sim.DrainCycles = full.DrainCycles
	} else if spec.Sim.MeasureCycles == 0 {
		quick := QuickSim()
		spec.Sim.WarmupCycles = quick.WarmupCycles
		spec.Sim.MeasureCycles = quick.MeasureCycles
		spec.Sim.DrainCycles = quick.DrainCycles
	}
	if s.set("cycles") && s.Cycles < 0 {
		return RunSpec{}, fmt.Errorf("slimnoc: -cycles %d, want >= 0", s.Cycles)
	}
	if s.set("cycles") && s.Cycles > 0 {
		spec.Sim.MeasureCycles = s.Cycles
		spec.Sim.WarmupCycles = s.Cycles / 4
		spec.Sim.DrainCycles = s.Cycles
	}
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return RunSpec{}, err
	}
	if s.SaveSpec != "" {
		if err := saveSpec(s.SaveSpec, spec); err != nil {
			return RunSpec{}, err
		}
	}
	return spec, nil
}
