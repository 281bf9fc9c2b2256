// Domain-parallel white-box tests: the zero-allocation contract of the
// parallel cycle loop and the domain-count rule. The identity tests, which
// need only the public API, are in identity_test.go.

package sim

import (
	"testing"

	"repro/internal/core"
)

// TestSteadyStateZeroAllocsParallel extends the zero-allocation contract to
// the domain-parallel cycle loop: once warm, stepping with live workers
// allocates nothing either — wheels and ready lists retain their capacity,
// and the barrier is two atomics.
func TestSteadyStateZeroAllocsParallel(t *testing.T) {
	s := newEngineSim(t, core.EB, 0.06)
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
