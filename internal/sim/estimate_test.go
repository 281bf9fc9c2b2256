package sim_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
)

// estimateCfg builds the shared estimate-episode config on the SN q=5 p=4
// subgroup network with a precompiled route table (the serve-layer shape:
// warm network + shared immutable table, no traffic source).
func estimateCfg(t testing.TB) sim.Config {
	t.Helper()
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	return sim.Config{Net: net, Table: minTable(t, net, 2), VCs: 2}
}

func TestEstimateLatenciesDeterministic(t *testing.T) {
	cfg := estimateCfg(t)
	batch := []sim.Transfer{
		{Src: 0, Dst: 137, Flits: 6},
		{Src: 3, Dst: 42, Flits: 2},
		{Src: 137, Dst: 0, Flits: 16},
	}
	first, err := sim.EstimateLatencies(cfg, batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range first {
		if l <= 0 {
			t.Fatalf("transfer %d: latency %d, want > 0", i, l)
		}
	}
	for rep := 0; rep < 3; rep++ {
		again, err := sim.EstimateLatencies(cfg, batch, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("rep %d transfer %d: latency %d != %d (episodes must be deterministic)",
					rep, i, again[i], first[i])
			}
		}
	}
}

// A single transfer measures zero-load latency; the same transfer inside a
// contended burst to the same destination can only take longer.
func TestEstimateContentionNeverFaster(t *testing.T) {
	cfg := estimateCfg(t)
	solo, err := sim.EstimateLatencies(cfg, []sim.Transfer{{Src: 0, Dst: 137, Flits: 6}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	burst := []sim.Transfer{
		{Src: 0, Dst: 137, Flits: 6},
		{Src: 1, Dst: 137, Flits: 6},
		{Src: 2, Dst: 137, Flits: 6},
		{Src: 3, Dst: 137, Flits: 6},
	}
	contended, err := sim.EstimateLatencies(cfg, burst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if contended[0] < solo[0] {
		t.Fatalf("contended latency %d < solo latency %d", contended[0], solo[0])
	}
	var max int64
	for _, l := range contended {
		if l > max {
			max = l
		}
	}
	if max <= solo[0] {
		t.Fatalf("hot-spot burst max latency %d not above zero-load %d", max, solo[0])
	}
}

// More flits serialize over the same route: latency must grow with size.
func TestEstimateLatencyGrowsWithFlits(t *testing.T) {
	cfg := estimateCfg(t)
	short, err := sim.EstimateLatencies(cfg, []sim.Transfer{{Src: 5, Dst: 180, Flits: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	long, err := sim.EstimateLatencies(cfg, []sim.Transfer{{Src: 5, Dst: 180, Flits: 32}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if long[0] <= short[0] {
		t.Fatalf("32-flit latency %d not above 1-flit latency %d", long[0], short[0])
	}
}

// Local delivery (src == dst) never enters the network but still pays the
// injection + ejection pipeline, so it has a small positive latency.
func TestEstimateLocalTransfer(t *testing.T) {
	cfg := estimateCfg(t)
	lat, err := sim.EstimateLatencies(cfg, []sim.Transfer{{Src: 7, Dst: 7, Flits: 6}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sim.EstimateLatencies(cfg, []sim.Transfer{{Src: 7, Dst: 150, Flits: 6}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat[0] <= 0 {
		t.Fatalf("local latency %d, want > 0", lat[0])
	}
	if lat[0] >= remote[0] {
		t.Fatalf("local latency %d not below remote latency %d", lat[0], remote[0])
	}
}

func TestEstimateValidation(t *testing.T) {
	cfg := estimateCfg(t)
	cases := []struct {
		name  string
		batch []sim.Transfer
	}{
		{"empty", nil},
		{"src out of range", []sim.Transfer{{Src: -1, Dst: 3, Flits: 1}}},
		{"dst out of range", []sim.Transfer{{Src: 0, Dst: 10_000, Flits: 1}}},
		{"zero flits", []sim.Transfer{{Src: 0, Dst: 3, Flits: 0}}},
	}
	for _, c := range cases {
		if _, err := sim.EstimateLatencies(cfg, c.batch, 0); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	bad := cfg
	bad.Traffic = &oneshotStub{}
	if _, err := sim.EstimateLatencies(bad, []sim.Transfer{{Src: 0, Dst: 1, Flits: 1}}, 0); err == nil {
		t.Error("non-nil Traffic: no error")
	}
	if _, err := sim.EstimateLatencies(cfg, []sim.Transfer{{Src: 0, Dst: 137, Flits: 6}}, 3); err == nil {
		t.Error("tiny maxCycles: no undelivered error")
	}
}

// TestEstimateRejectsOversizedTransfer: a transfer with more flits than a
// flit index can count is refused with an error naming it, instead of
// panicking inside the episode, and the engine answers the next batch.
func TestEstimateRejectsOversizedTransfer(t *testing.T) {
	cfg := estimateCfg(t)
	batch := []sim.Transfer{{Src: 0, Dst: 3, Flits: 6}, {Src: 0, Dst: 53, Flits: 70000}}
	_, err := sim.EstimateLatencies(cfg, batch, 0)
	if err == nil || !strings.Contains(err.Error(), "transfer 1 (0 -> 53) has 70000 flits") {
		t.Fatalf("oversized transfer: error %v, want one naming transfer 1", err)
	}
	e, err := sim.NewEpisodeEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Latencies(batch, 0); err == nil {
		t.Fatal("episode engine accepted a 70000-flit transfer")
	}
	if lat, err := e.Latencies(batch[:1], 0); err != nil || lat[0] <= 0 {
		t.Fatalf("after the refusal: latencies %v, error %v", lat, err)
	}
}

// oneshotStub is a placeholder Source for the Traffic-must-be-nil check.
type oneshotStub struct{}

func (oneshotStub) Generate(int64, *rng.Stream, func(int, int, int, int))           {}
func (oneshotStub) OnDelivered(int64, int, int, int, int, func(int, int, int, int)) {}
