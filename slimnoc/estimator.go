package slimnoc

import (
	"fmt"
	"sync"

	"repro/internal/routing"
	"repro/internal/sim"
)

// Transfer is one point-to-point message for latency estimation; see
// sim.Transfer. Aliased here so serve-layer callers never import
// internal/sim.
type Transfer = sim.Transfer

// EstimateResult is the latency answer for one transfer of an estimate
// episode. All fields are deterministic functions of the estimator spec and
// the episode's transfer batch, which is what makes responses cacheable and
// byte-stable across reruns.
type EstimateResult struct {
	// LatencyCycles is the end-to-end delivery latency in router cycles:
	// injection at cycle 0 on an idle network through tail-flit ejection.
	LatencyCycles int64 `json:"latency_cycles"`
	// LatencyNs converts LatencyCycles at the network's cycle time.
	LatencyNs float64 `json:"latency_ns"`
	// Hops is the router-path hop count of the transfer's compiled route.
	Hops int `json:"hops"`
	// Flits is the transfer size the episode actually simulated.
	Flits int `json:"flits"`
}

// Estimator answers cycle-accurate per-transfer latency queries on a warm
// engine. "Warm" means two things. The network is built and the static route
// table compiled once at construction, and every episode shares them
// strictly read-only — the same contract campaign workers rely on. And the
// simulator instances themselves are recycled: an Estimate call takes an idle
// episode engine off a free list (building one only when none is idle), runs
// one isolated episode on it (all transfers injected at cycle 0 on an idle
// network, stepped until the last tail flit ejects; the engine is fully reset
// first, so nothing of an earlier episode can reach a latency — see
// docs/DETERMINISM.md), and puts it back. At most one engine exists per
// concurrently running episode, each the size sim.New allocates for the
// network and never larger.
//
// An Estimator is safe for any number of concurrent Estimate and RouterPath
// calls (pinned under -race by TestEstimatorConcurrentIdentity). It holds a
// lock and must not be copied.
//
// Estimates need compiled routes, so the spec must name a static routing
// algorithm; adaptive algorithms (which route per packet from live state
// that an isolated episode does not have) are rejected by NewEstimator.
type Estimator struct {
	spec  RunSpec
	net   *Network
	table *routing.RouteTable
	cfg   sim.Config // template: Net/Table/VCs/scheme fields set, Traffic nil
	// MaxCycles bounds one episode (0 = the engine default); exceeding it
	// means an undeliverable transfer and fails the episode. Set it before
	// the first Estimate call.
	MaxCycles int64

	mu   sync.Mutex
	idle []*episode // LIFO: the most recently used engine is the cache-warm one
}

// episode is one recyclable unit of estimate state: an engine plus the
// scratch the hop count is derived in.
type episode struct {
	eng  *sim.EpisodeEngine
	path []int
}

// EstimatorSpec canonicalizes a RunSpec to the fields an estimate episode
// actually reads: the expanded network, static routing, buffering and the
// SMART hop factor. Name, the whole traffic axis and the simulation phases
// are cleared — an episode has no background traffic, no phases and (with
// static routing) no RNG draws — so every spec that estimates identically
// shares one canonical form. That form is the estimator's warm-engine pool
// key and the serve layer's response-cache identity (salted with the
// engine version, like PointKey).
func EstimatorSpec(spec RunSpec) (RunSpec, error) {
	n := spec.Normalized()
	n.Name = ""
	n.Traffic = TrafficSpec{}
	n.Sim = SimSpec{}
	expanded, err := ExpandNetwork(n.Network)
	if err != nil {
		return RunSpec{}, err
	}
	n.Network = expanded
	return n, nil
}

// NewEstimator builds the warm engine for the spec: network constructed,
// static routes compiled into an immutable shared table, buffering scheme
// resolved. Episode engines are built on demand by Estimate. The traffic and
// sim sections of the spec are ignored (see EstimatorSpec).
func NewEstimator(spec RunSpec) (*Estimator, error) {
	canon, err := EstimatorSpec(spec)
	if err != nil {
		return nil, err
	}
	cfg, err := engineConfig(canon)
	if err != nil {
		return nil, err
	}
	if cfg.Adaptive != nil {
		return nil, fmt.Errorf("slimnoc: estimator requires compiled (static) routes; adaptive algorithm %q routes per packet",
			canon.Routing.Algorithm)
	}
	net, kind, err := BuildNetwork(canon.Network)
	if err != nil {
		return nil, err
	}
	table, err := CompileRouteTable(net, kind, canon.Routing.Algorithm, cfg.VCs)
	if err != nil {
		return nil, err
	}
	cfg.Net, cfg.Table = net, table
	return &Estimator{spec: canon, net: net, table: table, cfg: cfg}, nil
}

// Spec returns the estimator's canonical spec (see EstimatorSpec) — the
// identity under which its answers may be cached or pooled.
func (e *Estimator) Spec() RunSpec { return e.spec }

// Network summarises the estimator's network.
func (e *Estimator) Network() NetworkInfo { return networkInfo(e.net) }

// Nodes returns the endpoint count: valid transfer endpoints are
// [0, Nodes).
func (e *Estimator) Nodes() int { return e.net.N() }

// CycleTimeNs returns the router cycle time used for ns conversion.
func (e *Estimator) CycleTimeNs() float64 { return e.net.CycleTimeNs }

// RouterPath returns the compiled router path a transfer from node src to
// node dst follows (len >= 1; consecutive elements are the directed links
// the transfer occupies). The slice is the caller's.
func (e *Estimator) RouterPath(src, dst int) ([]int, error) {
	n := e.net.N()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("slimnoc: transfer endpoints (%d -> %d) out of node range [0, %d)", src, dst, n)
	}
	return e.table.AppendPath(nil, e.net.NodeRouter(src), e.net.NodeRouter(dst)), nil
}

// acquire pops an idle episode engine, or builds one when every existing
// engine is busy.
func (e *Estimator) acquire() (*episode, error) {
	e.mu.Lock()
	if n := len(e.idle); n > 0 {
		ep := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		e.mu.Unlock()
		return ep, nil
	}
	e.mu.Unlock()
	eng, err := sim.NewEpisodeEngine(e.cfg)
	if err != nil {
		return nil, err
	}
	return &episode{eng: eng}, nil
}

// release returns an episode engine to the idle list.
func (e *Estimator) release(ep *episode) {
	e.mu.Lock()
	e.idle = append(e.idle, ep)
	e.mu.Unlock()
}

// Estimate runs one isolated episode: every transfer of the batch is
// injected at cycle 0 into an idle network and simulated cycle-accurately
// until delivery. A one-transfer batch measures zero-load route latency; a
// larger batch measures a concurrent burst, contention included. Episodes
// are deterministic and independent, so concurrent calls return the same
// results as serial ones.
func (e *Estimator) Estimate(transfers []Transfer) ([]EstimateResult, error) {
	ep, err := e.acquire()
	if err != nil {
		return nil, err
	}
	// A failed episode leaves the engine reusable (it resets before every
	// run), so it goes back either way.
	defer e.release(ep)
	lats, err := ep.eng.Latencies(transfers, e.MaxCycles)
	if err != nil {
		return nil, err
	}
	out := make([]EstimateResult, len(transfers))
	for i, tr := range transfers {
		ep.path = e.table.AppendPath(ep.path[:0], e.net.NodeRouter(tr.Src), e.net.NodeRouter(tr.Dst))
		out[i] = EstimateResult{
			LatencyCycles: lats[i],
			LatencyNs:     float64(lats[i]) * e.net.CycleTimeNs,
			Hops:          len(ep.path) - 1,
			Flits:         tr.Flits,
		}
	}
	return out, nil
}
