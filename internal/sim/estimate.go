// The latency-query entry point for co-simulation serving: instead of a
// statistical run over warmup/measure/drain phases, an estimate episode
// answers "how many cycles does this transfer take?" by injecting a batch
// of packets into an otherwise idle network at cycle 0 and stepping the
// engine until the last tail flit ejects. Execution-driven platforms (in
// the uPIMulator x BookSim2 style) call this through the slimnoc/serve
// service layer, which owns the warm-engine pooling and response caching.
// EpisodeEngine is the reusable form — one Sim, reset before every episode —
// and EstimateLatencies the construct-per-call reference.

package sim

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Transfer is one point-to-point message whose delivery latency an
// estimate episode measures: Flits flits from node Src to node Dst.
type Transfer struct {
	Src   int `json:"src"`
	Dst   int `json:"dst"`
	Flits int `json:"flits"`
}

// DefaultEstimateCap bounds an estimate episode when the caller passes
// maxCycles <= 0: generous enough for any deliverable batch on any
// supported topology, small enough to fail fast on a misconfigured one.
const DefaultEstimateCap = 1 << 20

// oneshotSource is the Source behind an estimate episode: it emits every
// transfer at cycle 0 (tagged by batch index via the class field) and
// records each tail-flit ejection cycle, which on an idle network with
// genTime 0 is the transfer's end-to-end latency.
type oneshotSource struct {
	transfers []Transfer
	lat       []int64
	delivered int
}

var _ Source = (*oneshotSource)(nil)
var _ NextFirer = (*oneshotSource)(nil)

// Generate implements Source: the whole batch enters at cycle 0, so
// transfers within one episode contend for links and buffers exactly like
// simultaneously issued DMAs.
func (o *oneshotSource) Generate(t int64, _ *rng.Stream, emit func(src, dst, flits, class int)) {
	if t != 0 {
		return
	}
	for i, tr := range o.transfers {
		emit(tr.Src, tr.Dst, tr.Flits, i)
	}
}

// NextFire implements NextFirer: after cycle 0 Generate never acts again
// (and draws no RNG), so the event calendar may skip every dead cycle of an
// episode — the bulk of an estimate against a mostly idle network.
func (o *oneshotSource) NextFire(t int64) int64 {
	if t < 0 {
		return 0
	}
	return math.MaxInt64
}

// OnDelivered implements Source: the ejection cycle of transfer `class` is
// its latency (injection happened at cycle 0). Emit is never called — an
// estimate episode has no replies.
func (o *oneshotSource) OnDelivered(t int64, _, _, _, class int, _ func(src, dst, flits, class int)) {
	if class >= 0 && class < len(o.lat) && o.lat[class] < 0 {
		o.lat[class] = t
		o.delivered++
	}
}

// EpisodeEngine is a reusable estimate engine: the simulator's geometry is
// allocated once, and every episode starts from a full Sim.reset, so any
// number of episodes run back to back on one engine with the latencies fresh
// engines would report (pinned by TestEpisodeEngineReuse). An engine runs one
// episode at a time; concurrent callers each need their own (slimnoc's
// Estimator keeps a free list of them).
type EpisodeEngine struct {
	s   *Sim
	src *oneshotSource
}

// NewEpisodeEngine builds an idle network from cfg, whose Traffic must be
// nil — episodes supply their own source. The expensive inputs, cfg.Net and
// cfg.Table, are read-only here like everywhere else in the engine, so any
// number of engines may share one network and one compiled route table.
// An episode engine steps one domain unless cfg.EngineJobs sets a count:
// episodes are short, and a serving pool already runs them side by side.
func NewEpisodeEngine(cfg Config) (*EpisodeEngine, error) {
	if cfg.Traffic != nil {
		return nil, fmt.Errorf("sim: estimate: cfg.Traffic must be nil (the episode supplies its own source)")
	}
	if cfg.Net == nil {
		return nil, fmt.Errorf("sim: estimate: cfg.Net is required")
	}
	src := &oneshotSource{}
	cfg.Traffic = src
	if cfg.EngineJobs == 0 {
		cfg.EngineJobs = 1
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &EpisodeEngine{s: s, src: src}, nil
}

// Latencies runs one isolated episode: the transfers are injected at cycle 0
// into the idle network and the engine steps until every tail flit has
// ejected. The returned slice holds each transfer's delivery latency in
// cycles, in batch order.
//
// A single-transfer batch measures the pure zero-load latency of that
// route; a multi-transfer batch measures a concurrent burst, contention
// included. Episodes are deterministic: the same config and batch always
// yield the same latencies, independent of wall-clock, scheduling or what
// the engine ran before (the engine RNG is only consulted by adaptive
// policies, and is reseeded from cfg.Seed with everything else).
//
// maxCycles bounds the episode (<= 0 selects DefaultEstimateCap); hitting
// the bound reports an error naming the undelivered transfers, the
// estimate-mode analogue of the run loop's deadlock watchdog. The engine
// stays usable after any error.
func (e *EpisodeEngine) Latencies(transfers []Transfer, maxCycles int64) ([]int64, error) {
	if len(transfers) == 0 {
		return nil, fmt.Errorf("sim: estimate: empty transfer batch")
	}
	s, src := e.s, e.src
	n := s.net.N()
	for i, tr := range transfers {
		if tr.Src < 0 || tr.Src >= n || tr.Dst < 0 || tr.Dst >= n {
			return nil, fmt.Errorf("sim: estimate: transfer %d endpoints (%d -> %d) out of node range [0, %d)",
				i, tr.Src, tr.Dst, n)
		}
		if tr.Flits < 1 || tr.Flits > maxPacketFlits {
			return nil, fmt.Errorf("sim: estimate: transfer %d (%d -> %d) has %d flits, want in [1, %d]", i, tr.Src, tr.Dst, tr.Flits, maxPacketFlits)
		}
	}
	if maxCycles <= 0 {
		maxCycles = DefaultEstimateCap
	}
	// Reset before the episode, not after: whatever the previous one left
	// behind — a batch cut off by the watchdog mid-flight included — is gone
	// before this one injects.
	s.reset()
	lat := make([]int64, len(transfers))
	for i := range lat {
		lat[i] = -1
	}
	*src = oneshotSource{transfers: transfers, lat: lat}
	// Drop the caller's batch when done, so an idle engine pins nothing.
	defer func() { *src = oneshotSource{} }()
	// Drive the cycle loop directly: unlike Run there are no phases — the
	// episode ends the moment the batch is fully delivered. Delayed
	// ejections ride the ejection wheel and complete inside step, so no
	// final flush is needed. Domain workers (more than one domain) run for
	// the episode like they do for a full run.
	s.startWorkers()
	defer s.stopWorkers()
	for s.now = 0; src.delivered < len(transfers); s.now++ {
		if s.now >= maxCycles {
			return nil, fmt.Errorf("sim: estimate: %d of %d transfers undelivered after %d cycles (deadlock or unreachable destination)",
				len(transfers)-src.delivered, len(transfers), maxCycles)
		}
		s.step()
		if s.calendar {
			// Skipping is bounded by the episode cap, so a stuck batch hits
			// the watchdog above at the identical cycle count either way.
			s.skipAhead(maxCycles)
		}
	}
	return lat, nil
}

// EstimateLatencies runs one episode on an engine built for the call: the
// construct-per-call form of EpisodeEngine.Latencies, and the reference the
// reuse tests compare a long-lived engine against.
func EstimateLatencies(cfg Config, transfers []Transfer, maxCycles int64) ([]int64, error) {
	e, err := NewEpisodeEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.Latencies(transfers, maxCycles)
}
