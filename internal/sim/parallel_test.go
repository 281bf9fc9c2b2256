// Domain-parallel identity tests: the deterministic-parallelism contract
// says a run's every observable output — Result, EngineStats, estimate
// latencies — is byte-identical at every domain count, because each domain
// owns the wheels it schedules into and the observable ejections are taken
// in ascending domain order (see domain.go). These tests pin that across buffer schemes, workload shapes
// (the PR 5 source taxonomy: Bernoulli, bursty on/off, request-reply),
// SMART links, and adaptive routing. CI runs them under -race without
// -short, which doubles them as the data-race proof for the worker pool.

package sim

import (
	"testing"

	"repro/internal/core"
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
		cfg.Table = minTable(t, net, vcs)
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
// live link occupancy (wire and input-buffer counts, settled at the end of
// the previous cycle) during the serial generate phase, so its RNG draw
// sequence and route choices must be unaffected by the domain count.
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

// delivery is one OnDelivered call, as orderSource records it.
type delivery struct {
	t                      int64
	src, dst, flits, class int
}

// orderSource issues Bernoulli requests and records every OnDelivered call
// in call order. Each delivered request is answered by a 1-flit reply from
// node 0, so the order of same-cycle ejections also decides the order the
// replies queue at node 0's NIC, and with it their injection.
type orderSource struct {
	bernoulliSource
	log []delivery
}

func (o *orderSource) OnDelivered(t int64, src, dst, flits, class int, emit func(src, dst, flits, class int)) {
	o.log = append(o.log, delivery{t, src, dst, flits, class})
	if class == 0 && src != 0 {
		emit(0, src, 1, 1)
	}
}

// TestEjectionOrderAcrossDomains pins the ascending-domain ejection order
// the determinism contract promises: the sequence of OnDelivered calls,
// including the order of calls within one cycle, is the same at every
// domain count. Result equality alone does not show it, as most statistics
// do not depend on the order of same-cycle ejections.
func TestEjectionOrderAcrossDomains(t *testing.T) {
	var want []delivery
	for _, jobs := range domainCounts {
		var src *orderSource
		mk := func(n int) Source {
			src = &orderSource{bernoulliSource: bernoulliSource{n: n, rate: 0.02, flits: 6}}
			return src
		}
		runParallelCase(t, EdgeBuffers, 1, 2, jobs, mk, false)
		if want == nil {
			want = src.log
			sameCycle := 0
			for i := 1; i < len(want); i++ {
				if want[i].t == want[i-1].t {
					sameCycle++
				}
			}
			if sameCycle == 0 {
				t.Fatalf("%d deliveries, none sharing a cycle: the run cannot show ejection order", len(want))
			}
			continue
		}
		if len(src.log) != len(want) {
			t.Fatalf("jobs=%d: %d deliveries, serial %d", jobs, len(src.log), len(want))
		}
		for i := range want {
			if src.log[i] != want[i] {
				t.Fatalf("jobs=%d: delivery %d is %+v, serial %+v", jobs, i, src.log[i], want[i])
			}
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
		Net:    net,
		Table:  minTable(t, net, 2),
		VCs:    2,
		Scheme: EdgeBuffers,
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
// allocates nothing either — wheels and ready lists retain their capacity,
// and the barrier is two atomics.
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

// TestNormalizeJobs pins the clamping of a set EngineJobs: negative values
// and 1 are serial, requests beyond the router count collapse to one domain
// per router, and the P count does not enter.
func TestNormalizeJobs(t *testing.T) {
	cases := []struct{ jobs, nr, want int }{
		{-3, 50, 1}, {1, 5000, 1},
		{2, 50, 2}, {7, 50, 7}, {64, 50, 50}, {4, 2, 2},
	}
	for _, c := range cases {
		for _, procs := range []int{1, 64} {
			if got := domainCount(c.jobs, c.nr, procs); got != c.want {
				t.Errorf("domainCount(%d, %d, %d) = %d, want %d", c.jobs, c.nr, procs, got, c.want)
			}
		}
	}
}

// TestDomainCountRule pins the count New picks when EngineJobs is 0: serial
// on one P and below two domains' worth of routers, then one domain per
// minDomainRouters routers up to the P count. 512 routers (the largest
// benchmark workload) stays serial; sn_subgr_10000 (1250) splits in two.
func TestDomainCountRule(t *testing.T) {
	const T = minDomainRouters
	cases := []struct{ nr, procs, want int }{
		{12482, 1, 1}, {1250, 1, 1},
		{T - 1, 2, 1}, {T, 2, 1}, {T, 64, 1},
		{512, 2, 1}, {512, 64, 1},
		{1250, 2, 2}, {1250, 64, 2},
		{12482, 2, 2}, {12482, 8, 8}, {12482, 64, 12482 / T},
	}
	for _, c := range cases {
		if got := domainCount(0, c.nr, c.procs); got != c.want {
			t.Errorf("%d routers on %d Ps: %d domains, want %d", c.nr, c.procs, got, c.want)
		}
	}
}
