package slimnoc

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/internal/routing"
	"repro/slimnoc/store"
)

// PointResult is the outcome of one campaign point. A completed point has
// Result set and Err nil; a failed point has Err set; a point cancelled
// mid-run has both — the partial metrics accumulated up to cancellation
// alongside an error wrapping ctx.Err() (mirroring Run). Points
// never started before cancellation carry the context error and a nil
// Result. Only Err == nil marks a complete, trustworthy result.
type PointResult struct {
	// Index is the point's position in the submitted spec slice; results
	// stream in completion order and are re-sorted by Index on return.
	Index  int     `json:"index"`
	Spec   RunSpec `json:"spec"`
	Result *Result `json:"result,omitempty"`
	Err    error   `json:"-"`
	// Error mirrors Err as text for serialized sinks.
	Error string `json:"error,omitempty"`
	// Cached marks a point served from an attached result store (WithStore)
	// instead of simulated. It is deliberately excluded from serialization:
	// a resumed campaign's sink output stays byte-identical to a cold run's.
	Cached bool `json:"-"`
}

// ErrorText is the point's error cell in tabular reports: its Error, or for
// a run whose drain stalled with flits in flight, the suspected deadlock.
func (p PointResult) ErrorText() string {
	if p.Error == "" && p.Result != nil && p.Result.Metrics.DeadlockSuspected {
		m := p.Result.Metrics
		return fmt.Sprintf("deadlock suspected: %d of %d delivered", m.Delivered, m.Generated)
	}
	return p.Error
}

// Sink consumes point results as they complete. Emit is always called from
// one goroutine at a time (the campaign serializes it), in completion
// order — which under parallelism is not index order; every emitted record
// carries its Index for re-ordering downstream.
type Sink interface {
	Emit(PointResult) error
}

// jsonlSink streams one JSON object per completed point.
type jsonlSink struct {
	enc *json.Encoder
}

// NewJSONLSink returns a Sink writing one JSON object per line to w: the
// point index, its full spec, and its result or error. Lines appear in
// completion order; sort by "index" to recover submission order.
func NewJSONLSink(w io.Writer) Sink {
	return &jsonlSink{enc: json.NewEncoder(w)}
}

func (s *jsonlSink) Emit(p PointResult) error {
	return s.enc.Encode(p)
}

// csvSink streams one CSV row per completed point.
type csvSink struct {
	w         *csv.Writer
	wroteHead bool
}

// csvHeader is the column set emitted by NewCSVSink, written as its first
// row.
var csvHeader = []string{
	"index", "name", "network", "pattern", "process", "burst_len", "duty",
	"mod_factor", "mod_period", "hotspot_frac", "hotspot_count", "size_mix",
	"window", "rate", "vcs", "scheme", "smart",
	"seed", "avg_latency_cycles", "avg_latency_ns", "p99_latency_cycles",
	"throughput", "offered_load", "avg_hops", "delivered", "generated",
	"cycles", "saturated", "error",
}

// NewCSVSink returns a Sink writing one CSV row per completed point, with a
// header row first. Rows appear in completion order; the index column
// recovers submission order.
func NewCSVSink(w io.Writer) Sink {
	return &csvSink{w: csv.NewWriter(w)}
}

func (s *csvSink) Emit(p PointResult) error {
	if !s.wroteHead {
		if err := s.w.Write(csvHeader); err != nil {
			return err
		}
		s.wroteHead = true
	}
	netName := p.Spec.Network.Preset
	var m Metrics
	if p.Result != nil {
		netName = p.Result.Network.Name
		m = p.Result.Metrics
	}
	// Resolved, not raw: a defaulted burst point reports the burst_len the
	// run actually used (8), never a physically impossible zero.
	tr := resolveTraffic(p.Spec.Traffic)
	row := []string{
		strconv.Itoa(p.Index), p.Spec.Name, netName,
		tr.Pattern, DisplayProcess(tr), formatFloat(tr.BurstLen), formatFloat(tr.Duty),
		formatFloat(tr.ModFactor), formatFloat(tr.ModPeriod),
		formatFloat(tr.HotspotFraction), strconv.Itoa(tr.HotspotCount),
		tr.SizeMix, strconv.Itoa(tr.Window),
		formatFloat(tr.Rate),
		strconv.Itoa(p.Spec.Routing.VCs), p.Spec.Buffering.Scheme,
		strconv.FormatBool(p.Spec.SMART), strconv.FormatInt(p.Spec.Sim.Seed, 10),
		formatFloat(m.AvgLatencyCycles), formatFloat(m.AvgLatencyNs),
		formatFloat(m.P99LatencyCycles), formatFloat(m.Throughput),
		formatFloat(m.OfferedLoad), formatFloat(m.AvgHops),
		strconv.FormatInt(m.Delivered, 10), strconv.FormatInt(m.Generated, 10),
		strconv.FormatInt(m.Cycles, 10), strconv.FormatBool(m.Saturated),
		p.ErrorText(),
	}
	if err := s.w.Write(row); err != nil {
		return err
	}
	s.w.Flush()
	return s.w.Error()
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Campaign executes batches of RunSpecs on a worker pool, building each
// distinct network once and sharing it read-only across workers. A Campaign
// is reusable and safe for sequential reuse — the network and route-table
// caches live for the Campaign's lifetime, so a figure run as several
// sequential sweeps builds each distinct network once, not once per sweep.
// One Run call executes at a time per Campaign value.
type Campaign struct {
	jobs      int
	memBudget int64
	sinks     []Sink
	onPoint   func(PointResult)
	store     *store.Store
	cache     *netCache
	// hook, when set, sees each point's runner just before it runs, so
	// tests can watch what the campaign handed a point.
	hook func(i int, r *runner)
}

// CampaignOption configures a Campaign.
type CampaignOption func(*Campaign)

// WithJobs sets the worker count: 1 executes serially, 0 (the default) uses
// runtime.GOMAXPROCS(0). Per-point metrics are independent of the job count —
// every point's seed is fixed at expansion time — so parallelism changes
// wall-clock only, never results.
func WithJobs(n int) CampaignOption {
	return func(c *Campaign) { c.jobs = n }
}

// WithPointMemBudget caps every point's estimated engine footprint at bytes
// (0 = no cap). The estimate covers the per-node, per-router, per-VC and
// per-edge state plus the compiled route table. Oversized points fail fast
// with a sizing error in their PointResult instead of allocating —
// including the campaign's shared route-table compile, which is skipped
// when the table alone would bust the budget. The budget never alters the
// results of runs that fit, so it is a campaign option, not a RunSpec
// field, and stays out of PointKey.
func WithPointMemBudget(bytes int64) CampaignOption {
	return func(c *Campaign) { c.memBudget = bytes }
}

// WithSink attaches a result sink; repeatable. Sinks receive every executed
// point in completion order, serialized by the campaign.
func WithSink(s Sink) CampaignOption {
	return func(c *Campaign) { c.sinks = append(c.sinks, s) }
}

// WithOnPoint streams each completed point to fn (progress bars, live
// tables). Like sinks, fn is serialized and sees completion order.
func WithOnPoint(fn func(PointResult)) CampaignOption {
	return func(c *Campaign) { c.onPoint = fn }
}

// NewCampaign builds a campaign engine.
func NewCampaign(opts ...CampaignOption) *Campaign {
	c := &Campaign{}
	for _, o := range opts {
		o(c)
	}
	return c
}

// netCacheEntry memoizes one network build.
type netCacheEntry struct {
	once sync.Once
	net  *Network
	kind routing.Kind
	err  error
}

// tableCacheEntry memoizes one compiled route table.
type tableCacheEntry struct {
	once sync.Once
	tab  *routing.RouteTable
	err  error
}

// netCache builds each distinct (expanded) NetworkSpec once per Campaign —
// a multi-sweep reproduction reuses one build across sequential Run calls —
// and shares the resulting Network read-only across workers: sim.New and
// Run never mutate a supplied network (see WithNetwork). It likewise
// compiles each distinct (network, static routing algorithm, VCs)
// combination into one immutable routing.RouteTable shared by every point
// using it (see WithRouteTable).
type netCache struct {
	mu      sync.Mutex
	entries map[string]*netCacheEntry
	tables  map[string]*tableCacheEntry
}

// get returns the shared network for ns, building it at most once.
func (nc *netCache) get(ns NetworkSpec) (*Network, routing.Kind, error) {
	key, err := networkKey(ns)
	if err != nil {
		return nil, routing.Kind{}, err
	}
	nc.mu.Lock()
	e, ok := nc.entries[key]
	if !ok {
		e = &netCacheEntry{}
		nc.entries[key] = e
	}
	nc.mu.Unlock()
	e.once.Do(func() {
		e.net, e.kind, e.err = BuildNetwork(ns)
	})
	return e.net, e.kind, e.err
}

// table returns the shared compiled route table for a static routing
// algorithm on the spec's network, compiling it at most once per
// (network, algorithm, VCs) combination, under the campaign's per-point
// memory budget (0 = none).
func (nc *netCache) table(ns NetworkSpec, algorithm string, vcs int, budget int64) (*routing.RouteTable, error) {
	net, kind, err := nc.get(ns)
	if err != nil {
		return nil, err
	}
	key, err := networkKey(ns)
	if err != nil {
		return nil, err
	}
	tkey := fmt.Sprintf("%s\x00%s\x00%d", key, strings.ToLower(algorithm), vcs)
	nc.mu.Lock()
	e, ok := nc.tables[tkey]
	if !ok {
		e = &tableCacheEntry{}
		nc.tables[tkey] = e
	}
	nc.mu.Unlock()
	e.once.Do(func() {
		e.tab, e.err = compileRouteTable(net, kind, algorithm, vcs, budget)
	})
	return e.tab, e.err
}

// networkKey canonicalizes a NetworkSpec: presets expand first so a preset
// and its explicit equivalent share one cache entry.
func networkKey(ns NetworkSpec) (string, error) {
	expanded, err := ExpandNetwork(ns)
	if err != nil {
		return "", err
	}
	data, err := json.Marshal(expanded)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// Run executes the points and returns one PointResult per input spec,
// sorted by index. Individual point failures do not abort the batch; they
// surface in their PointResult.Err. Cancelling the context stops dispatch,
// cancels in-flight runs at their next poll point, and returns the partial
// result set: executed points keep their results, never-started points
// carry ctx's error. The returned error is ctx's error on cancellation and
// nil otherwise.
func (c *Campaign) Run(ctx context.Context, points []RunSpec) ([]PointResult, error) {
	results := make([]PointResult, len(points))
	for i, spec := range points {
		results[i] = PointResult{Index: i, Spec: spec.Normalized()}
	}
	jobs := c.jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(points) {
		jobs = len(points)
	}
	if jobs < 1 {
		jobs = 1
	}
	// Points that run beside each other step one domain each: the workers
	// already fill the Ps, and two loaded 1250-router points took 2-3x as
	// long on two domains each as serially. A lone worker leaves the count
	// to the engine, which splits only large networks.
	engineJobs := 0
	if jobs > 1 {
		engineJobs = 1
	}

	c.ensureCache()
	cache := c.cache
	idxCh := make(chan int)
	var emitMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				p := &results[i]
				p.Result, p.Cached, p.Err = c.execPoint(ctx, i, p.Spec, cache, engineJobs)
				if p.Err != nil {
					p.Error = p.Err.Error()
				}
				emitMu.Lock()
				c.emitPoint(p)
				emitMu.Unlock()
			}
		}()
	}

dispatch:
	for i := range points {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idxCh)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i].Result == nil && results[i].Err == nil {
				results[i].Err = err
				results[i].Error = err.Error()
			}
		}
		return results, err
	}
	return results, nil
}

// ensureCache lazily creates the network/route-table cache so a zero-value
// Campaign works like one from NewCampaign. Run (and SaturationSearch) are
// single-threaded per Campaign value.
func (c *Campaign) ensureCache() {
	if c.cache == nil {
		c.cache = &netCache{
			entries: make(map[string]*netCacheEntry),
			tables:  make(map[string]*tableCacheEntry),
		}
	}
}

// emitPoint reports one completed point to the sinks and the OnPoint hook.
// Callers serialize: Run's workers hold the emit mutex, SaturationSearch is
// single-goroutine. A sink failure marks an otherwise successful point.
func (c *Campaign) emitPoint(p *PointResult) {
	for _, s := range c.sinks {
		if err := s.Emit(*p); err != nil && p.Err == nil {
			p.Err = fmt.Errorf("slimnoc: sink: %w", err)
			p.Error = p.Err.Error()
		}
	}
	if c.onPoint != nil {
		c.onPoint(*p)
	}
}

// runPoint executes one spec on its cached network and route table, on
// engineJobs domains (0 = the engine's choice).
func (c *Campaign) runPoint(ctx context.Context, i int, spec RunSpec, cache *netCache, engineJobs int) (*Result, error) {
	net, kind, err := cache.get(spec.Network)
	if err != nil {
		return nil, err
	}
	r := newRunner(spec, WithNetwork(net, kind), WithEngineJobs(engineJobs))
	r.memBudget = c.memBudget
	// Static routing compiles once per (network, algorithm, VCs) and is
	// shared read-only by every point using it; adaptive algorithms route
	// per packet, have no compiled form and fail to compile. The compile
	// runs under the point budget, so a table that alone would bust it is
	// refused before it is allocated. Any compile error is left for the run
	// to rediscover and report.
	if tab, err := cache.table(spec.Network, spec.Routing.Algorithm, spec.Routing.VCs, c.memBudget); err == nil {
		r.table = tab
	}
	if c.hook != nil {
		c.hook(i, r)
	}
	return r.run(ctx)
}
