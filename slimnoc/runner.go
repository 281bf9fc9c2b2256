package slimnoc

import (
	"context"
	"fmt"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Source generates traffic for the simulator; see sim.Source. Aliased here
// so callers of the facade never import internal/sim.
type Source = sim.Source

// Progress is the periodic telemetry snapshot streamed during a run.
type Progress = sim.Progress

// Network is the placed router graph; see topo.Network.
type Network = topo.Network

// Kind names a network's topology family and grid parameters so the
// deadlock-free routing appropriate to it can be derived; see routing.Kind.
type Kind = routing.Kind

// PathBuilder is a static routing algorithm bound to one network, the input
// routing.Compile turns into a RouteTable; see routing.PathBuilder.
type PathBuilder = routing.PathBuilder

// RouteTable is the compiled form of a static routing algorithm, one
// next-hop byte per router pair; see routing.RouteTable. Tables built by
// CompileRouteTable are immutable and safe to share across concurrent runs.
type RouteTable = routing.RouteTable

// EngineStats is the simulator-core telemetry block attached to every
// Result: freelist behaviour, active-set occupancy and timing-wheel depth;
// see sim.EngineStats.
type EngineStats = sim.EngineStats

// runner executes one RunSpec once: the spec plus the options Run and the
// Campaign's points apply to it.
type runner struct {
	spec RunSpec

	net     *topo.Network
	kind    routing.Kind
	haveNet bool

	source        sim.Source
	table         *routing.RouteTable
	progress      func(Progress)
	progressEvery int64
	engineJobs    int
	cycleStep     bool
	memBudget     int64
}

// Option customises a run beyond what the declarative spec expresses.
type Option func(*runner)

// WithNetwork supplies an already built network in place of the one the
// spec's network section names (sweeps that reuse one network across many
// runs). The network is treated as read-only from here on: neither sim.New
// nor Run mutates a supplied topo.Network, so one network may back any
// number of concurrent runs (the Campaign engine relies on this;
// TestCampaignSharedNetworkRace pins it under -race). Callers must likewise
// stop mutating the network once it is shared — also because the network
// memoizes its own Diameter (reported in every Result.Network) on first
// request, behind a sync.Once: points sharing a network pay that all-pairs
// sweep once between them, and a later mutation would leave the memo stale.
func WithNetwork(net *Network, kind routing.Kind) Option {
	return func(r *runner) { r.net, r.kind, r.haveNet = net, kind, true }
}

// WithRouteTable supplies a precompiled route table for the spec's static
// routing algorithm, skipping the CompileRouteTable call Run would otherwise
// make itself. The table must come from CompileRouteTable for the same
// algorithm and VC count as the spec, and for the very network the run
// uses: Run fails on a table compiled over any other network, even one of
// the same size. Compiled tables are immutable, so one table may back any
// number of concurrent runs — the Campaign engine shares one per distinct
// (network, routing, VCs) combination, and
// TestCampaignSharedRouteTableRace pins the contract under -race. The
// table is ignored when the spec names an adaptive algorithm, which routes
// per packet.
func WithRouteTable(t *RouteTable) Option {
	return func(r *runner) { r.table = t }
}

// WithSource overrides the traffic section of the spec with a custom
// generator (e.g. a recorded trace replay).
func WithSource(src Source) Option {
	return func(r *runner) { r.source = src }
}

// WithProgress streams a telemetry snapshot every `every` cycles (0 = the
// simulator default of 1024) to fn during the run.
func WithProgress(every int64, fn func(Progress)) Option {
	return func(r *runner) { r.progress, r.progressEvery = fn, every }
}

// WithEngineJobs forces the engine onto n spatial router domains (see
// sim.Config.EngineJobs) instead of the count it picks from the router
// count and GOMAXPROCS. Results are byte-identical at every count, so no
// caller needs to choose one: it is exported only for the benchmark's
// sim.run_jobs2 fork probe.
func WithEngineJobs(n int) Option {
	return func(r *runner) { r.engineJobs = n }
}

// WithCycleStep forces the classic cycle-by-cycle stepping loop, disabling
// the event calendar's dead-cycle skipping. Results are byte-identical with
// or without it — the calendar is exact-equivalent by contract — so like
// the domain count this is an execution strategy, not a model parameter, and
// stays out of the spec's canonical bytes and PointKey. Useful for
// differential debugging and for benchmarking the calendar's speedup.
func WithCycleStep() Option {
	return func(r *runner) { r.cycleStep = true }
}

// WithMemBudget caps the engine's estimated steady-state memory footprint at
// bytes (0 = no cap). The estimate covers the per-node, per-router, per-VC
// and per-edge state plus the compiled route table; a spec whose instance
// exceeds the budget fails fast in Run with a sizing error instead of
// allocating. The budget never alters results — runs that fit behave
// identically at any budget — so it is a run option, not a RunSpec field.
func WithMemBudget(bytes int64) Option {
	return func(r *runner) { r.memBudget = bytes }
}

// newRunner prepares a run of the spec.
func newRunner(spec RunSpec, opts ...Option) *runner {
	r := &runner{spec: spec.Normalized()}
	for _, o := range opts {
		o(r)
	}
	return r
}

// NetworkInfo summarises the structural properties of the simulated
// network.
type NetworkInfo struct {
	Name          string  `json:"name"`
	Routers       int     `json:"routers"`
	Nodes         int     `json:"nodes"`
	NetworkRadix  int     `json:"network_radix"`
	RouterRadix   int     `json:"router_radix"`
	Diameter      int     `json:"diameter"`
	CycleTimeNs   float64 `json:"cycle_time_ns"`
	AvgWireLength float64 `json:"avg_wire_length"`
}

// Metrics is the typed measurement summary of one run.
type Metrics struct {
	AvgLatencyCycles float64 `json:"avg_latency_cycles"`
	AvgLatencyNs     float64 `json:"avg_latency_ns"`
	P99LatencyCycles float64 `json:"p99_latency_cycles"`
	// Throughput is accepted flits/node/cycle in the measurement window.
	Throughput  float64 `json:"throughput"`
	OfferedLoad float64 `json:"offered_load"`
	AvgHops     float64 `json:"avg_hops"`
	Delivered   int64   `json:"delivered"`
	Generated   int64   `json:"generated"`
	Cycles      int64   `json:"cycles"`
	Saturated   bool    `json:"saturated"`
	// DeadlockSuspected flags a run whose drain phase stalled with flits
	// still in flight — a routing or flow-control misconfiguration.
	DeadlockSuspected bool `json:"deadlock_suspected,omitempty"`
}

// Result is the outcome of one run: the spec that produced it, the network
// it ran on, the measured metrics, and the engine telemetry (allocation
// behaviour, active-set occupancy, timing-wheel depth). Raw carries the
// unwrapped simulator result for callers layered below the facade.
type Result struct {
	Spec    RunSpec     `json:"spec"`
	Network NetworkInfo `json:"network"`
	Metrics Metrics     `json:"metrics"`
	Engine  EngineStats `json:"engine"`
	Raw     sim.Result  `json:"-"`
}

// engineConfig resolves a normalized spec's buffer plan and routing
// algorithm into the sim.Config that Run and NewEstimator both start from.
// The network, route table, traffic and phases are the caller's.
func engineConfig(spec RunSpec) (sim.Config, error) {
	alg, err := routings.lookup(spec.Routing.Algorithm)
	if err != nil {
		return sim.Config{}, err
	}
	b, err := spec.BufferPlan()
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{Buffers: b, Adaptive: alg.policy}, nil
}

// run executes the spec on the supplied network, or on the one the spec
// names.
func (r *runner) run(ctx context.Context) (*Result, error) {
	spec := r.spec
	net, kind := r.net, r.kind
	if !r.haveNet {
		var err error
		if net, kind, err = BuildNetwork(spec.Network); err != nil {
			return nil, err
		}
	}
	cfg, err := engineConfig(spec)
	if err != nil {
		return nil, err
	}

	src := r.source
	if src == nil {
		gen, err := traffics.lookup(spec.Traffic.Pattern)
		if err != nil {
			return nil, err
		}
		if src, err = gen.source(net, spec.Traffic); err != nil {
			return nil, err
		}
	}

	// Static routing always runs from a compiled table: a shared one
	// (WithRouteTable) or, compiled last so that every cheaper spec error
	// surfaces first, the one CompileRouteTable would hand out. Adaptive
	// routing picks paths per packet; a supplied table is ignored.
	if cfg.Adaptive == nil {
		if cfg.Table = r.table; cfg.Table == nil {
			cfg.Table, err = compileRouteTable(net, kind, spec.Routing.Algorithm, cfg.VCs, r.memBudget)
			if err != nil {
				return nil, err
			}
		}
	}

	cfg.Net = net
	cfg.Traffic = src
	cfg.PacketFlits = spec.Traffic.PacketFlits
	cfg.InjQueueCap = spec.Sim.InjQueueCap
	cfg.Seed = spec.Sim.Seed
	cfg.WarmupCycles = spec.Sim.WarmupCycles
	cfg.MeasureCycles = spec.Sim.MeasureCycles
	cfg.DrainCycles = spec.Sim.DrainCycles
	cfg.EngineJobs = r.engineJobs
	cfg.CycleStep = r.cycleStep
	cfg.MemBudgetBytes = r.memBudget
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	raw, runErr := s.RunContext(ctx, r.progressEvery, r.progress)
	res := &Result{
		Spec:    spec,
		Network: networkInfo(net),
		Metrics: metricsOf(raw, net.CycleTimeNs),
		Engine:  s.EngineStats(),
		Raw:     raw,
	}
	return res, runErr
}

// CompileRouteTable builds the immutable compiled route table for a static
// routing algorithm on an already built network. The result is safe to
// share across concurrent runs via WithRouteTable. Adaptive algorithms
// (ugal-l, ugal-g, min-adapt) have no compiled form and are rejected. It is the
// one place route tables come from: a Run without WithRouteTable, the
// campaign's shared-table cache and NewEstimator all compile here.
//
// Every static algorithm compiles, at every size, to one next-hop byte per
// (src,dst) pair, from which the engine walks each packet's route: "minimal"
// fills it from a single word-parallel all-pairs sweep, and "auto" does the
// same on generic networks (SN, Dragonfly, Clos) and uses the mesh, torus,
// FBF and PFBF builders' next-hop arithmetic on the grids.
func CompileRouteTable(net *Network, kind Kind, algorithm string, vcs int) (*RouteTable, error) {
	return compileRouteTable(net, kind, algorithm, vcs, 0)
}

// compileRouteTable is CompileRouteTable under a memory budget (0 = none):
// the table's nr^2 bytes are checked against it before the table is
// allocated, so a point whose table alone busts the budget fails here
// instead of allocating first and letting sim.New find out.
func compileRouteTable(net *Network, kind Kind, algorithm string, vcs int, budget int64) (*RouteTable, error) {
	alg, err := routings.lookup(algorithm)
	if err != nil {
		return nil, err
	}
	if alg.compile == nil {
		return nil, fmt.Errorf("slimnoc: adaptive algorithm %q routes per packet and cannot be compiled", algorithm)
	}
	if bytes := int64(net.Nr) * int64(net.Nr); budget > 0 && bytes > budget {
		return nil, fmt.Errorf(
			"slimnoc: route table needs %.1f MiB for %d routers, which exceeds MemBudgetBytes = %.1f MiB; raise the budget or pick a smaller instance",
			float64(bytes)/(1<<20), net.Nr, float64(budget)/(1<<20))
	}
	return alg.compile(net, kind, vcs)
}

// Run executes the spec. Cancelling the context stops the simulation at the
// next poll point; the returned Result then holds the metrics accumulated
// so far alongside an error wrapping ctx.Err().
func Run(ctx context.Context, spec RunSpec, opts ...Option) (*Result, error) {
	return newRunner(spec, opts...).run(ctx)
}

func networkInfo(net *topo.Network) NetworkInfo {
	return NetworkInfo{
		Name:          net.Name,
		Routers:       net.Nr,
		Nodes:         net.N(),
		NetworkRadix:  net.NetworkRadix(),
		RouterRadix:   net.RouterRadix(),
		Diameter:      net.Diameter(),
		CycleTimeNs:   net.CycleTimeNs,
		AvgWireLength: net.AvgWireLength(),
	}
}

func metricsOf(r sim.Result, cycleNs float64) Metrics {
	return Metrics{
		AvgLatencyCycles:  r.AvgLatency,
		AvgLatencyNs:      r.AvgLatency * cycleNs,
		P99LatencyCycles:  r.P99Latency,
		Throughput:        r.Throughput,
		OfferedLoad:       r.OfferedLoad,
		AvgHops:           r.AvgHops,
		Delivered:         r.Delivered,
		Generated:         r.Generated,
		Cycles:            r.Cycles,
		Saturated:         r.Saturated,
		DeadlockSuspected: r.DeadlockSuspected,
	}
}
