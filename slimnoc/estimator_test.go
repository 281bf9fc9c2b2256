package slimnoc_test

import (
	"encoding/json"
	"slices"
	"sync"
	"testing"

	"repro/internal/topo"
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
	aj, _ := json.MarshalIndent(a, "", "  ")
	bj, _ := json.MarshalIndent(b, "", "  ")
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
		if r.LatencyNs != float64(r.LatencyCycles)*e.Network().CycleTimeNs {
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

// oneHopPairs returns, per wire length d of sn_subgr_200, one pair of
// nodes whose routers are joined by the first link of that length.
func oneHopPairs(t *testing.T) map[int][2]int {
	t.Helper()
	net, _, err := slimnoc.BuildNetwork(slimnoc.NetworkSpec{Preset: "sn_subgr_200"})
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[int][2]int{}
	for a, adj := range net.Adj {
		for _, b := range adj {
			d := topo.ManhattanDist(net.Coords[a], net.Coords[b])
			if _, ok := pairs[d]; !ok {
				pairs[d] = [2]int{a * net.P, b * net.P} // nodes attach contiguously
			}
		}
	}
	return pairs
}

// TestOneHopZeroLoad pins the zero-load cost of one hop on sn_subgr_200
// without SMART, per wire length d (the network has no d = 10 link): a
// 6-flit packet under EB-Small, whose 5-flit credit loop stalls the tail
// once the wire's round trip exceeds it, and under the elastic schemes,
// whose input latch adds no stall; and a 1-flit packet, which costs 5 + d
// cycles under all three.
func TestOneHopZeroLoad(t *testing.T) {
	dists := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11}
	sixFlits := map[string][]int64{
		"eb":  {11, 13, 16, 19, 22, 25, 28, 31, 34, 40},
		"el":  {13, 13, 14, 15, 15, 16, 17, 18, 19, 21},
		"cbr": {13, 13, 14, 15, 15, 16, 17, 18, 19, 21},
	}
	pairs := oneHopPairs(t)
	for scheme, want := range sixFlits {
		e, err := slimnoc.NewEstimator(slimnoc.RunSpec{
			Network:   slimnoc.NetworkSpec{Preset: "sn_subgr_200"},
			Buffering: slimnoc.BufferingSpec{Scheme: scheme},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range dists {
			p, ok := pairs[d]
			if !ok {
				t.Fatalf("no link of length %d", d)
			}
			res, err := e.Estimate([]slimnoc.Transfer{{Src: p[0], Dst: p[1], Flits: 6}, {Src: p[1], Dst: p[0], Flits: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if res[0].Hops != 1 || res[0].LatencyCycles != want[i] {
				t.Errorf("%s d=%d: 6 flits take %d cycles over %d hops, want %d over 1", scheme, d, res[0].LatencyCycles, res[0].Hops, want[i])
			}
			if res[1].Hops != 1 || res[1].LatencyCycles != int64(5+d) {
				t.Errorf("%s d=%d: 1 flit takes %d cycles over %d hops, want %d over 1", scheme, d, res[1].LatencyCycles, res[1].Hops, 5+d)
			}
		}
	}
}

// TestFlitDoubling is the metamorphic companion of TestOneHopZeroLoad:
// doubling a packet from f to 2f flits must delay its arrival by exactly
// f cycles, one per added flit, wherever no credit stall intervenes. EB-Var
// sizes every input buffer to its wire's credit round trip, so under it the
// rule holds on every one-hop wire length and on multi-hop routes, with and
// without SMART. Under the elastic schemes it does not: the increments
// pinned below (found, not intended) run near 1.5 cycles per added flit on
// the shortest wire, as if the elastic credit window were shorter than its
// round trip there.
func TestFlitDoubling(t *testing.T) {
	flits := []int{1, 2, 3, 4, 6, 8, 12, 16}
	pairs := oneHopPairs(t)
	estimator := func(scheme string, smart bool) *slimnoc.Estimator {
		e, err := slimnoc.NewEstimator(slimnoc.RunSpec{
			Network:   slimnoc.NetworkSpec{Preset: "sn_subgr_200"},
			Buffering: slimnoc.BufferingSpec{Scheme: scheme},
			SMART:     smart,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// increments returns latency(2f) − latency(f) for each f, each packet
	// alone on the idle network.
	increments := func(e *slimnoc.Estimator, src, dst int, fs []int) []int64 {
		latency := func(f int) int64 {
			res, err := e.Estimate([]slimnoc.Transfer{{Src: src, Dst: dst, Flits: f}})
			if err != nil {
				t.Fatal(err)
			}
			return res[0].LatencyCycles
		}
		inc := make([]int64, len(fs))
		for i, f := range fs {
			inc[i] = latency(2*f) - latency(f)
		}
		return inc
	}
	for _, smart := range []bool{false, true} {
		e := estimator("eb-var", smart)
		for _, d := range []int{1, 2, 3, 5, 8, 11} {
			p := pairs[d]
			for i, inc := range increments(e, p[0], p[1], flits) {
				if inc != int64(flits[i]) {
					t.Errorf("eb-var smart=%v d=%d: %d → %d flits adds %d cycles, want %d", smart, d, flits[i], 2*flits[i], inc, flits[i])
				}
			}
		}
		for dst := 7; dst < 200; dst += 7 {
			fs := []int{1, 3, 6}
			for i, inc := range increments(e, 0, dst, fs) {
				if inc != int64(fs[i]) {
					t.Errorf("eb-var smart=%v 0→%d: %d → %d flits adds %d cycles, want %d", smart, dst, fs[i], 2*fs[i], inc, fs[i])
				}
			}
		}
	}

	found := []struct {
		d     int
		smart bool
		want  []int64
	}{
		{1, false, []int64{1, 3, 4, 6, 9, 12, 18, 24}},
		{1, true, []int64{1, 3, 4, 6, 9, 12, 18, 24}},
		{11, false, []int64{1, 2, 3, 4, 6, 9, 13, 17}},
	}
	for _, scheme := range []string{"el", "cbr"} {
		for _, smart := range []bool{false, true} {
			e := estimator(scheme, smart)
			for _, fr := range found {
				if fr.smart != smart {
					continue
				}
				p := pairs[fr.d]
				if got := increments(e, p[0], p[1], flits); !slices.Equal(got, fr.want) {
					t.Errorf("%s smart=%v d=%d: doubling f = %v adds %v cycles, pinned as found %v", scheme, smart, fr.d, flits, got, fr.want)
				}
			}
		}
	}
}
