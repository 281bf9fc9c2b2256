package slimnoc

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// campaignSweep returns a quick multi-point sweep exercising two networks,
// two patterns and two loads with tiny cycle counts.
func campaignSweep() SweepSpec {
	return testSweep()
}

// runSweepPoints expands campaignSweep and executes it with the given jobs.
func runSweepPoints(t *testing.T, jobs int, opts ...CampaignOption) []PointResult {
	t.Helper()
	points, err := campaignSweep().Points()
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunCampaign(t.Context(), points, append(opts, WithJobs(jobs))...)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestCampaignParallelMatchesSerial is the core determinism contract: the
// same sweep run serially and with jobs=NumCPU yields byte-identical
// per-point metrics, because every point's seed is fixed at expansion time.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	serial := runSweepPoints(t, 1)
	parallel := runSweepPoints(t, runtime.NumCPU())
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d points, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("point %d errors: serial %v, parallel %v", i, serial[i].Err, parallel[i].Err)
		}
		sm, err := json.Marshal(serial[i].Result.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := json.Marshal(parallel[i].Result.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sm, pm) {
			t.Errorf("point %d (%s): serial metrics %s != parallel %s",
				i, serial[i].Spec.Name, sm, pm)
		}
	}
}

// TestCampaignResultsOrderedAndComplete checks every submitted point comes
// back at its own index with its own spec.
func TestCampaignResultsOrderedAndComplete(t *testing.T) {
	points, err := campaignSweep().Points()
	if err != nil {
		t.Fatal(err)
	}
	results := runSweepPoints(t, 3)
	if len(results) != len(points) {
		t.Fatalf("%d results for %d points", len(results), len(points))
	}
	for i, p := range results {
		if p.Index != i {
			t.Errorf("result %d carries index %d", i, p.Index)
		}
		if p.Spec.Name != points[i].Name {
			t.Errorf("result %d spec %q, want %q", i, p.Spec.Name, points[i].Name)
		}
		if p.Result == nil || p.Result.Metrics.Delivered == 0 {
			t.Errorf("point %d delivered nothing", i)
		}
	}
}

// TestCampaignNetworkCacheSharing checks the engine builds each distinct
// network once per Campaign, however many points share it: a preset and its
// explicit parameters are one network, the cache holds one entry per
// distinct network, and every point runs on its entry's build.
func TestCampaignNetworkCacheSharing(t *testing.T) {
	explicit, err := ExpandNetwork(NetworkSpec{Preset: "t2d54"})
	if err != nil {
		t.Fatal(err)
	}
	nets := []NetworkSpec{{Preset: "t2d54"}, explicit, {Preset: "fbf54"}}
	var points []RunSpec
	for i := 0; i < 6; i++ {
		points = append(points, RunSpec{
			Network: nets[i%len(nets)],
			Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.05},
			Sim:     SimSpec{WarmupCycles: 100, MeasureCycles: 200, DrainCycles: 400, Seed: int64(i + 1)},
		})
	}
	ran := make([]*Network, len(points)) // the network each point ran on
	c := NewCampaign(WithJobs(3), WithPointOptions(func(i int, _ RunSpec) []Option {
		return []Option{func(r *runner) { ran[i] = r.net }}
	}))
	results, err := c.Run(t.Context(), points)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range results {
		if p.Err != nil {
			t.Errorf("point %d: %v", i, p.Err)
		}
	}
	if n := len(c.cache.entries); n != 2 {
		t.Errorf("cache holds %d networks, want 2", n)
	}
	for i, p := range points {
		e, ok := c.cache.entries[mustNetworkKey(t, p.Network)]
		if !ok || e.net == nil || ran[i] != e.net {
			t.Errorf("point %d (%+v) did not run on its cached network", i, p.Network)
		}
	}
}

func mustNetworkKey(t *testing.T, ns NetworkSpec) string {
	t.Helper()
	key, err := networkKey(ns)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestCampaignPartialResultsOnCancel cancels mid-campaign and checks the
// partial result set: executed points keep results, the rest carry the
// context error, and Run reports cancellation.
func TestCampaignPartialResultsOnCancel(t *testing.T) {
	base := RunSpec{
		Network: NetworkSpec{Preset: "t2d54"},
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.05},
		// Long enough that the tail of the batch is still queued or
		// in-flight when the first completion cancels.
		Sim: SimSpec{WarmupCycles: 1000, MeasureCycles: 30000, DrainCycles: 30000, Seed: 2},
	}
	sweep := SweepSpec{
		Name: "cancel",
		Base: base,
		Axes: SweepAxes{Loads: []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08}},
	}
	points, err := sweep.Points()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	results, err := RunCampaign(ctx, points,
		WithJobs(2),
		WithOnPoint(func(PointResult) { once.Do(cancel) }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign error %v, want context.Canceled", err)
	}
	if len(results) != len(points) {
		t.Fatalf("%d results for %d points", len(results), len(points))
	}
	completed, cancelled := 0, 0
	for i, p := range results {
		switch {
		case p.Result != nil && p.Err == nil:
			completed++
		case p.Err != nil:
			if !errors.Is(p.Err, context.Canceled) {
				t.Errorf("point %d error %v does not wrap context.Canceled", i, p.Err)
			}
			cancelled++
		default:
			t.Errorf("point %d has neither result nor error", i)
		}
	}
	if completed == 0 {
		t.Error("no point completed before cancellation")
	}
	if cancelled == 0 {
		t.Error("cancellation stopped nothing: all points completed")
	}
}

// TestCampaignSinks checks the JSONL and CSV sinks receive every point and
// serialize it parseably.
func TestCampaignSinks(t *testing.T) {
	var jsonl, csvBuf bytes.Buffer
	collector := &Collector{}
	results := runSweepPoints(t, 2,
		WithSink(NewJSONLSink(&jsonl)),
		WithSink(NewCSVSink(&csvBuf)),
		WithSink(collector))

	// JSONL: one parseable object per point, indices covering the sweep.
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != len(results) {
		t.Fatalf("JSONL has %d lines, want %d", len(lines), len(results))
	}
	seen := map[int]bool{}
	for _, line := range lines {
		var p PointResult
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if p.Result == nil || p.Result.Metrics.Cycles == 0 {
			t.Errorf("JSONL point %d has no metrics", p.Index)
		}
		seen[p.Index] = true
	}
	if len(seen) != len(results) {
		t.Errorf("JSONL covers %d distinct indices, want %d", len(seen), len(results))
	}

	// CSV: header plus one row per point.
	rows, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(results)+1 {
		t.Fatalf("CSV has %d rows, want %d", len(rows), len(results)+1)
	}
	for i, col := range CSVHeader {
		if rows[0][i] != col {
			t.Errorf("CSV header column %d = %q, want %q", i, rows[0][i], col)
		}
	}

	// Collector: index-sorted and complete.
	got := collector.Points()
	if len(got) != len(results) {
		t.Fatalf("collector has %d points", len(got))
	}
	for i, p := range got {
		if p.Index != i {
			t.Errorf("collector point %d has index %d", i, p.Index)
		}
	}
}

// TestCampaignPointError checks an invalid point fails alone without
// aborting the rest of the batch.
func TestCampaignPointError(t *testing.T) {
	good := RunSpec{
		Network: NetworkSpec{Preset: "t2d54"},
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.05},
		Sim:     SimSpec{WarmupCycles: 100, MeasureCycles: 200, DrainCycles: 400, Seed: 1},
	}
	bad := good
	bad.Network = NetworkSpec{Preset: "no_such_net"}
	results, err := RunCampaign(t.Context(), []RunSpec{good, bad, good}, WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("good points failed: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("bad point succeeded")
	}
	if results[1].Error == "" {
		t.Error("bad point has no serializable error text")
	}
}

// TestCampaignSharedNetworkRace runs many concurrent simulations on one
// WithNetwork-shared network. Under -race this pins the contract that
// sim.New/Run never mutate a supplied topo.Network — its one piece of
// internal state, the memoized Diameter every point's NetworkInfo asks for,
// is filled exactly once behind a sync.Once however many workers get there
// together (the network arrives here with the memo still empty).
func TestCampaignSharedNetworkRace(t *testing.T) {
	net, kind, err := BuildNetwork(NetworkSpec{Preset: "t2d54"})
	if err != nil {
		t.Fatal(err)
	}
	var points []RunSpec
	for i := 0; i < 12; i++ {
		points = append(points, RunSpec{
			Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.02 + 0.005*float64(i)},
			Sim:     SimSpec{WarmupCycles: 100, MeasureCycles: 300, DrainCycles: 600, Seed: int64(i + 1)},
		})
	}
	results, err := RunCampaign(t.Context(), points,
		WithJobs(runtime.NumCPU()),
		WithPointOptions(func(int, RunSpec) []Option {
			return []Option{WithNetwork(net, kind)}
		}))
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := BuildNetwork(NetworkSpec{Preset: "t2d54"})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range results {
		if p.Err != nil {
			t.Errorf("point %d: %v", i, p.Err)
		} else if got, want := p.Result.Network.Diameter, fresh.Diameter(); got != want {
			t.Errorf("point %d: diameter %d from the shared network, %d from a fresh build", i, got, want)
		}
	}
	if err := net.Validate(); err != nil {
		t.Errorf("shared network mutated: %v", err)
	}
}

// TestCampaignPointDomains pins the campaign's domain rule: when more than
// one worker is busy at once every point is forced onto one domain, so
// points and domains never oversubscribe the Ps; a lone worker, and the
// saturation search's one-at-a-time probes, leave the count to the engine
// (EngineJobs 0).
func TestCampaignPointDomains(t *testing.T) {
	points, err := campaignSweep().Points()
	if err != nil {
		t.Fatal(err)
	}
	// seen records the domain count the campaign handed each point: a
	// point option runs after the campaign's own options.
	run := func(jobs int, points []RunSpec) map[int]bool {
		var mu sync.Mutex
		seen := map[int]bool{}
		c := NewCampaign(WithJobs(jobs), WithPointOptions(func(int, RunSpec) []Option {
			return []Option{func(r *runner) {
				mu.Lock()
				seen[r.engineJobs] = true
				mu.Unlock()
			}}
		}))
		if _, err := c.Run(t.Context(), points); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	for _, c := range []struct {
		name   string
		jobs   int
		points []RunSpec
		want   int
	}{
		{"two-workers", 2, points, 1},
		{"one-worker", 1, points, 0},
		{"one-point", 4, points[:1], 0},
	} {
		if seen := run(c.jobs, c.points); len(seen) != 1 || !seen[c.want] {
			t.Errorf("%s: points ran with EngineJobs %v, want only %d", c.name, seen, c.want)
		}
	}

	var probes []int
	c := NewCampaign(WithJobs(2), WithPointOptions(func(int, RunSpec) []Option {
		return []Option{func(r *runner) { probes = append(probes, r.engineJobs) }}
	}))
	sat := SaturationSpec{Base: points[0], MinLoad: 0.05, MaxLoad: 0.4, Step: 0.1}
	if _, err := c.SaturationSearch(t.Context(), sat); err != nil {
		t.Fatal(err)
	}
	for _, n := range probes {
		if n != 0 {
			t.Errorf("saturation probes ran with EngineJobs %v, want 0", probes)
			break
		}
	}
	if len(probes) == 0 {
		t.Error("saturation search ran no probes")
	}
}

// TestCampaignDefaultJobsFollowGOMAXPROCS runs a default campaign on one P:
// its worker count must follow GOMAXPROCS, not the CPU count, so no two
// points are ever in flight at once (a point counts from its options hook
// until it is reported).
func TestCampaignDefaultJobsFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var points []RunSpec
	for i := 0; i < 6; i++ {
		points = append(points, RunSpec{
			Network: NetworkSpec{Preset: "sn_subgr_200"},
			Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.3},
			Sim:     SimSpec{WarmupCycles: 200, MeasureCycles: 1000, DrainCycles: 1000, Seed: int64(i + 1)},
		})
	}
	var inFlight, peak atomic.Int32
	c := NewCampaign(
		WithPointOptions(func(int, RunSpec) []Option {
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			return nil
		}),
		WithOnPoint(func(PointResult) { inFlight.Add(-1) }),
	)
	results, err := c.Run(t.Context(), points)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range results {
		if p.Err != nil {
			t.Fatalf("point %d: %v", i, p.Err)
		}
	}
	if p := peak.Load(); p != 1 {
		t.Errorf("%d points in flight at once on one P, want 1", p)
	}
}
