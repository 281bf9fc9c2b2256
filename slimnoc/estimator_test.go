package slimnoc_test

import (
	"sync"
	"testing"

	"repro/slimnoc"
)

func newTestEstimator(t testing.TB, preset string) *slimnoc.Estimator {
	t.Helper()
	e, err := slimnoc.NewEstimator(slimnoc.RunSpec{
		Network: slimnoc.NetworkSpec{Preset: preset},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEstimatorSpecCanonicalizes(t *testing.T) {
	a, err := slimnoc.EstimatorSpec(slimnoc.RunSpec{
		Name:    "labelled",
		Network: slimnoc.NetworkSpec{Preset: "t2d9"},
		Traffic: slimnoc.TrafficSpec{Pattern: "adv1", Rate: 0.2},
		Sim:     slimnoc.SimSpec{Seed: 42, WarmupCycles: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := slimnoc.EstimatorSpec(slimnoc.RunSpec{
		Network: slimnoc.NetworkSpec{Preset: "T2D9"},
	})
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := a.JSON()
	bj, _ := b.JSON()
	if string(aj) != string(bj) {
		t.Fatalf("estimator specs differ for identical engines:\n a %s\n b %s", aj, bj)
	}
	if a.Network.Preset != "" && a.Network.Topology == "" {
		t.Fatalf("network not expanded: %+v", a.Network)
	}
}

func TestEstimatorRejectsAdaptive(t *testing.T) {
	_, err := slimnoc.NewEstimator(slimnoc.RunSpec{
		Network: slimnoc.NetworkSpec{Preset: "t2d9"},
		Routing: slimnoc.RoutingSpec{Algorithm: "ugal-l", VCs: 4},
	})
	if err == nil {
		t.Fatal("adaptive routing accepted")
	}
}

func TestEstimatorEstimateAndPath(t *testing.T) {
	e := newTestEstimator(t, "t2d9")
	res, err := e.Estimate([]slimnoc.Transfer{
		{Src: 0, Dst: e.Nodes() - 1, Flits: 6},
		{Src: 1, Dst: 2, Flits: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.LatencyCycles <= 0 {
			t.Fatalf("transfer %d: latency %d", i, r.LatencyCycles)
		}
		if r.LatencyNs != float64(r.LatencyCycles)*e.CycleTimeNs() {
			t.Fatalf("transfer %d: ns conversion mismatch", i)
		}
	}
	path, err := e.RouterPath(0, e.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(path)-1 != res[0].Hops {
		t.Fatalf("RouterPath hops %d != estimate hops %d", len(path)-1, res[0].Hops)
	}
	if _, err := e.RouterPath(-1, 0); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

// TestEstimatorConcurrentIdentity pins the sharing contract: many goroutines
// estimating on one warm Estimator (same network, same compiled table, episode
// engines handed out from its free list) get exactly the latencies a serial
// caller gets, and the estimator never holds more engines than there were
// concurrent callers. Run under -race by the CI race job.
func TestEstimatorConcurrentIdentity(t *testing.T) {
	e := newTestEstimator(t, "t2d9")
	n := e.Nodes()
	batches := make([][]slimnoc.Transfer, 16)
	for i := range batches {
		batches[i] = []slimnoc.Transfer{
			{Src: i % n, Dst: (i*37 + 11) % n, Flits: 1 + i%8},
			{Src: (i * 13) % n, Dst: (i * 29) % n, Flits: 6},
		}
	}
	serial := make([][]slimnoc.EstimateResult, len(batches))
	for i, b := range batches {
		r, err := e.Estimate(b)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	if got := e.IdleEngines(); got != 1 {
		t.Fatalf("%d idle engines after serial use, want 1 (one engine, reused)", got)
	}
	const rounds = 8
	concurrent := make([][]slimnoc.EstimateResult, len(batches))
	errs := make([]error, len(batches))
	var wg sync.WaitGroup
	for i, b := range batches {
		wg.Add(1)
		go func(i int, b []slimnoc.Transfer) {
			defer wg.Done()
			for r := 0; r < rounds && errs[i] == nil; r++ {
				concurrent[i], errs[i] = e.Estimate(b)
			}
		}(i, b)
	}
	wg.Wait()
	for i := range batches {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for j := range serial[i] {
			if serial[i][j] != concurrent[i][j] {
				t.Fatalf("batch %d transfer %d: concurrent %+v != serial %+v",
					i, j, concurrent[i][j], serial[i][j])
			}
		}
	}
	if got := e.IdleEngines(); got < 1 || got > len(batches) {
		t.Fatalf("%d idle engines after %d concurrent callers, want between 1 and %d", got, len(batches), len(batches))
	}
}

// TestEstimatorFailedEpisodeKeepsEngine cuts an episode off with the cycle
// watchdog, then checks the same engine answers the next one like a fresh
// estimator: an aborted episode neither loses the engine nor poisons it.
func TestEstimatorFailedEpisodeKeepsEngine(t *testing.T) {
	e := newTestEstimator(t, "t2d9")
	batch := []slimnoc.Transfer{{Src: 0, Dst: e.Nodes() - 1, Flits: 16}, {Src: 1, Dst: e.Nodes() - 1, Flits: 16}}
	want, err := newTestEstimator(t, "t2d9").Estimate(batch)
	if err != nil {
		t.Fatal(err)
	}
	e.MaxCycles = 5
	if _, err := e.Estimate(batch); err == nil {
		t.Fatal("5-cycle cap: no undelivered error")
	}
	if _, err := e.Estimate(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	e.MaxCycles = 0
	got, err := e.Estimate(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transfer %d after an aborted episode: %+v, fresh estimator %+v", i, got[i], want[i])
		}
	}
	if n := e.IdleEngines(); n != 1 {
		t.Fatalf("%d idle engines, want the one engine back on the list", n)
	}
}

// TestEstimateWarmAllocs caps what a warm single-transfer Estimate allocates:
// the result slices plus the source queue the packet waits in (reset hands
// that growable ring back empty; the input and injection buffers are slabs
// New sized, which reset clears in place). Building an engine per episode,
// as Estimate once did, costs 60+ allocations and ~1 MiB on this network
// and fails this loudly.
func TestEstimateWarmAllocs(t *testing.T) {
	e := newTestEstimator(t, "sn_gr_1296")
	batch := []slimnoc.Transfer{{Src: 3, Dst: 1200, Flits: 4}}
	if _, err := e.Estimate(batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.Estimate(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("warm single-transfer Estimate allocates %.0f times, want <= 3", allocs)
	}
}
