// Domain-parallel identity tests: the deterministic-parallelism contract
// says a run's every observable output — Result, EngineStats, estimate
// latencies — is byte-identical at every domain count, because cross-domain
// effects are staged per domain and merged in ascending domain order (see
// domain.go). These tests pin that across buffer schemes, workload shapes
// (the PR 5 source taxonomy: Bernoulli, bursty on/off, request-reply),
// SMART links, and adaptive routing. CI runs them under -race without
// -short, which doubles them as the data-race proof for the worker pool.

package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
)

// domainCounts covers serial (1), even splits (2), a split where 50 routers
// divide unevenly (4 -> 12/13/12/13), and a prime count (7).
var domainCounts = []int{1, 2, 4, 7}

// runParallelCase builds the standard SN q=5 p=4 engine test network and
// runs it to completion with the given domain count.
func runParallelCase(t *testing.T, scheme BufferScheme, h, vcs, jobs int, mkSrc func(n int) Source, adaptive bool) (Result, EngineStats) {
	t.Helper()
	sn, err := core.New(core.Params{Q: 5, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	net, err := sn.Network(core.LayoutSubgroup, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Net:           net,
		VCs:           vcs,
		Scheme:        scheme,
		H:             h,
		Traffic:       mkSrc(net.N()),
		Seed:          211,
		EngineJobs:    jobs,
		WarmupCycles:  1000,
		MeasureCycles: 3000,
		DrainCycles:   3000,
	}
	if adaptive {
		cfg.Adaptive = &UGAL{Global: false}
	} else {
		cfg.Routing = &routing.MinimalRouting{P: routing.NewMinimal(net), VCs: vcs}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	return res, s.EngineStats()
}

// TestDomainParallelIdentity is the core identity matrix: every buffer
// scheme x every PR 5 workload shape x domains in {1, 2, 4, 7}, each
// compared field for field against the serial run. A saturating rate keeps
// all domains busy and cross-domain traffic dense.
func TestDomainParallelIdentity(t *testing.T) {
	sources := []struct {
		name string
		mk   func(n int) Source
	}{
		{"bernoulli", func(n int) Source { return &bernoulliSource{n: n, rate: 0.20, flits: 6} }},
		{"bursty", func(n int) Source { return newOnOffSource(n, 0.12, 8, 0.25) }},
		{"reqreply", func(n int) Source { return &reqReplySource{n: n, window: 4} }},
	}
	schemes := []struct {
		name   string
		scheme BufferScheme
	}{
		{"EB", EdgeBuffers},
		{"CBR", CentralBuffer},
		{"EL", ElasticLinks},
	}
	for _, sc := range schemes {
		for _, src := range sources {
			sc, src := sc, src
			if testing.Short() && (sc.scheme != EdgeBuffers && src.name != "bernoulli") {
				continue // -short: EB x all sources, all schemes x bernoulli
			}
			t.Run(sc.name+"/"+src.name, func(t *testing.T) {
				wantRes, wantEng := runParallelCase(t, sc.scheme, 1, 2, 1, src.mk, false)
				for _, jobs := range domainCounts[1:] {
					gotRes, gotEng := runParallelCase(t, sc.scheme, 1, 2, jobs, src.mk, false)
					if gotRes != wantRes {
						t.Errorf("jobs=%d: Result diverged from serial\n got %+v\nwant %+v", jobs, gotRes, wantRes)
					}
					if gotEng != wantEng {
						t.Errorf("jobs=%d: EngineStats diverged from serial\n got %+v\nwant %+v", jobs, gotEng, wantEng)
					}
				}
			})
		}
	}
}

// TestDomainParallelIdentitySMART repeats the identity check with SMART
// links (H=9): multi-hop-per-cycle wires shrink link latencies to 1 and
// maximise per-cycle cross-domain handoffs.
func TestDomainParallelIdentitySMART(t *testing.T) {
	mk := func(n int) Source { return &bernoulliSource{n: n, rate: 0.24, flits: 6} }
	wantRes, wantEng := runParallelCase(t, EdgeBuffers, 9, 2, 1, mk, false)
	for _, jobs := range domainCounts[1:] {
		gotRes, gotEng := runParallelCase(t, EdgeBuffers, 9, 2, jobs, mk, false)
		if gotRes != wantRes {
			t.Errorf("jobs=%d: Result diverged from serial\n got %+v\nwant %+v", jobs, gotRes, wantRes)
		}
		if gotEng != wantEng {
			t.Errorf("jobs=%d: EngineStats diverged from serial\n got %+v\nwant %+v", jobs, gotEng, wantEng)
		}
	}
}

// TestDomainParallelIdentityAdaptive pins the adaptive path: UGAL reads
// live link occupancy (merged at end of the previous cycle) during the
// serial generate phase, so its RNG draw sequence and route choices must
// be unaffected by the domain count.
func TestDomainParallelIdentityAdaptive(t *testing.T) {
	mk := func(n int) Source { return &bernoulliSource{n: n, rate: 0.10, flits: 6} }
	wantRes, wantEng := runParallelCase(t, EdgeBuffers, 1, 4, 1, mk, true)
	for _, jobs := range domainCounts[1:] {
		gotRes, gotEng := runParallelCase(t, EdgeBuffers, 1, 4, jobs, mk, true)
		if gotRes != wantRes {
			t.Errorf("jobs=%d: Result diverged from serial\n got %+v\nwant %+v", jobs, gotRes, wantRes)
		}
		if gotEng != wantEng {
			t.Errorf("jobs=%d: EngineStats diverged from serial\n got %+v\nwant %+v", jobs, gotEng, wantEng)
		}
	}
}

// TestDomainParallelEstimateIdentity runs the co-simulation estimate entry
// point at every domain count: per-transfer latencies of a contended burst
// must not depend on the decomposition.
func TestDomainParallelEstimateIdentity(t *testing.T) {
	sn, err := core.New(core.Params{Q: 5, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	net, err := sn.Network(core.LayoutSubgroup, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := net.N()
	var transfers []Transfer
	for i := 0; i < 64; i++ {
		transfers = append(transfers, Transfer{Src: (i * 7) % n, Dst: (i*13 + 5) % n, Flits: 2 + i%6})
	}
	cfg := Config{
		Net:     net,
		Routing: &routing.MinimalRouting{P: routing.NewMinimal(net), VCs: 2},
		VCs:     2,
		Scheme:  EdgeBuffers,
	}
	want, err := EstimateLatencies(cfg, transfers, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range domainCounts[1:] {
		cfg.EngineJobs = jobs
		got, err := EstimateLatencies(cfg, transfers, 0)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("jobs=%d: transfer %d latency %d, serial %d", jobs, i, got[i], want[i])
			}
		}
	}
}

// TestSteadyStateZeroAllocsParallel extends the zero-allocation contract to
// the domain-parallel cycle loop: once warm, stepping with live workers
// allocates nothing either — staging buffers and ready lists retain their
// capacity, and the barrier is two atomics.
func TestSteadyStateZeroAllocsParallel(t *testing.T) {
	s := newEngineSim(t, EdgeBuffers, 0.06)
	// Rebuild with 4 domains on the same config.
	cfg := s.cfg
	cfg.EngineJobs = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.startWorkers()
	defer s.stopWorkers()
	warm := s.cfg.WarmupCycles + 2000
	for s.now = 0; s.now < warm; s.now++ {
		s.step()
	}
	allocs := testing.AllocsPerRun(500, func() {
		s.step()
		s.now++
	})
	if allocs != 0 {
		t.Fatalf("steady-state parallel cycle loop allocates %.2f times per cycle, want 0", allocs)
	}
	if s.doneMeasured == 0 {
		t.Fatal("measurement window delivered nothing; test exercised an idle network")
	}
}

// TestNormalizeJobs pins the EngineJobs clamping: non-positive values and 1
// are serial, requests beyond the router count collapse to one domain per
// router.
func TestNormalizeJobs(t *testing.T) {
	cases := []struct{ jobs, nr, want int }{
		{0, 50, 1}, {-3, 50, 1}, {1, 50, 1},
		{2, 50, 2}, {7, 50, 7}, {64, 50, 50}, {4, 2, 2},
	}
	for _, c := range cases {
		if got := normalizeJobs(c.jobs, c.nr); got != c.want {
			t.Errorf("normalizeJobs(%d, %d) = %d, want %d", c.jobs, c.nr, got, c.want)
		}
	}
}
