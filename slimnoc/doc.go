// Package slimnoc is the public facade of the Slim NoC reproduction: the
// one supported entry point for building networks, configuring runs and
// executing the cycle-accurate simulator.
//
// A run is described declaratively by a RunSpec — a JSON-serializable,
// round-trippable document naming a topology, physical layout, routing
// algorithm, buffering scheme, traffic generator and simulation phases.
// Every name in a spec resolves, case-insensitively, through a fixed table
// per axis: the design space the paper evaluates (Slim NoC and its Table 4,
// §2.2 and §5.5 baselines, the §3.3 layouts, the §4.3 and §6 routings, the
// §4-5.1 buffer schemes and the workload axes). The tables are built once
// and never change, so a name in a stored spec always means the code that
// ran it; an unknown name fails with the list of accepted ones:
//
//	spec := slimnoc.RunSpec{
//		Network: slimnoc.NetworkSpec{Topology: "sn", Q: 5, Conc: 4, Layout: "subgr"},
//		Traffic: slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.1},
//		Sim:     slimnoc.QuickSim(),
//	}
//	res, err := slimnoc.Run(ctx, spec)
//
// Runs accept a context.Context for cooperative cancellation (a cancelled
// run returns its partial metrics with an error wrapping ctx.Err()) and
// functional options for everything the declarative spec cannot express:
// WithProgress streams telemetry during long sweeps, and WithNetwork and
// WithRouteTable reuse one built network and its compiled routes across a
// sweep. The engine picks how many
// parallel domains it steps; no result byte depends on the count.
//
// Whole evaluation grids are campaigns: a SweepSpec declares axes (presets,
// patterns, schemes, VC counts, loads, seeds) that expand into a
// deterministic cartesian product of RunSpecs, and a Campaign executes them
// on a worker pool — each distinct network built once and shared read-only,
// each distinct (network, static routing, VCs) combination compiled once
// into an immutable RouteTable shared the same way (CompileRouteTable /
// WithRouteTable hand such a table to a single Run; a Run given no table
// compiles its own through the same CompileRouteTable), per-point seeds fixed
// at expansion time (DeriveSeed) so results are byte-identical at any job
// count, results streaming to pluggable Sinks (NewJSONLSink, NewCSVSink)
// as points complete, and context cancellation returning the partial
// result set. WithPointMemBudget caps each point's engine footprint. Run
// returns one PointResult per point, in point order:
//
//	sweep, _ := slimnoc.LoadSweep("sweep.json")
//	points, _ := sweep.Points()
//	results, err := slimnoc.NewCampaign(slimnoc.WithJobs(8)).Run(ctx, points)
//
// Campaigns become restartable jobs with a content-addressed result store
// (WithStore, package slimnoc/store). Every point is addressed by its
// PointKey — the hash of the canonical-JSON form of its expanded spec plus
// the engine version — and durably appended to a JSONL store before it is
// reported, so an interrupted campaign loses at most its in-flight points.
// The resume contract mirrors the sharing contract of WithNetwork /
// WithRouteTable: just as shared networks and compiled tables are
// observationally invisible (results are byte-identical with or without
// them), a store is too — rerunning a sweep against the store of an
// interrupted run completes only the missing points and returns a result
// set byte-identical to an uninterrupted cold run, with served points
// marked by PointResult.Cached (the Campaign.Run example interrupts and
// resumes one):
//
//	st, _ := store.Open("results/store.jsonl")
//	results, err := slimnoc.NewCampaign(slimnoc.WithStore(st)).Run(ctx, points)
//
// Because keys hash the full point identity (minus the display label), one
// store deduplicates identical points across sweeps and figures; because
// they include sim.EngineVersion, results from an incompatible engine
// generation are never served.
//
// # Workloads: Pattern x Process x Sizer
//
// TrafficSpec composes a workload from three orthogonal axes plus two
// extras, mirroring the internal/traffic decomposition. The spatial Pattern
// (rnd, shf, rev, adv1, adv2, asym) decides where packets go; the temporal
// Process (bernoulli, burst, mmpp, reqreply) decides when
// nodes inject; the size mix (fixed, bimodal) decides packet lengths; the
// hotspot overlay (HotspotFraction/HotspotCount) concentrates a share of
// any pattern's traffic on a few hot nodes; and the closed-loop reqreply
// process replaces the open loop with a self-throttling outstanding-request
// window. All axes preserve the configured mean load and the determinism
// contract (fixed seed => identical injection sequence, zero-allocation
// steady state). The defaults canonicalize to ABSENT fields — Normalized
// rewrites "bernoulli" and "fixed" to "" — so specs written before the
// decomposition keep their canonical bytes, and with them their PointKeys
// and stored results.
//
// SaturationSearch is the campaign mode built on the decomposition: it
// binary-searches the offered load where a configuration's mean latency
// crosses a threshold (SaturationSpec), probing ordinary campaign points on
// the min_load + i*step grid. Probes flow through the campaign's sinks and
// result store, so searches resume like sweeps (a warm rerun simulates
// nothing) and share probe results with any sweep touching the same loads.
//
// # Latency estimates and serve mode
//
// An Estimator answers point queries instead of running statistical
// campaigns: NewEstimator builds a warm engine (network plus compiled
// static route table) from the engine-relevant subset of a RunSpec
// (EstimatorSpec), and Estimate returns the cycle-accurate latency of a
// batch of transfers injected together on an otherwise idle network — a
// single transfer is the zero-load latency of its route and size, a batch
// is one contended episode. Estimators are safe for concurrent use: the
// underlying network and table are immutable and shared, the same contract
// campaigns rely on, and the simulator instances episodes run on are
// recycled — reset in full before every episode, at most one per
// concurrently running episode, each no larger than the engine sim.New
// builds for the network, stepped on one domain. Set MaxCycles before the
// first Estimate call. Package slimnoc/serve exposes estimators as a
// co-simulation oracle service (JSON-line protocol, engine pool,
// store-backed response cache) consumed by the snserve binary; see
// docs/SERVING.md.
//
// SpecFlags layers the same spec model onto the flag package, giving every
// command-line binary a shared `-spec run.json` + per-field overrides
// convention.
package slimnoc
