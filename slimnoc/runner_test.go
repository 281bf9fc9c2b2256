package slimnoc

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestCancellationReturnsPartialResult cancels a long run from its own
// progress callback and checks the run stops promptly with the metrics
// accumulated so far.
func TestCancellationReturnsPartialResult(t *testing.T) {
	spec := RunSpec{
		Network: NetworkSpec{Preset: "t2d54"},
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.1},
		Sim:     SimSpec{WarmupCycles: 1000, MeasureCycles: 1000000, DrainCycles: 100000, Seed: 5},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var lastSeen int64
	res, err := Run(ctx, spec, WithProgress(512, func(p Progress) {
		lastSeen = p.Cycle
		if p.Cycle >= 2048 {
			cancel()
		}
	}))
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if res.Metrics.Cycles >= 1200000 {
		t.Errorf("run completed (%d cycles) despite cancellation", res.Metrics.Cycles)
	}
	// The next poll after the cancelling callback is one interval later.
	if res.Metrics.Cycles > lastSeen+512 {
		t.Errorf("run stopped at cycle %d, %d cycles after cancellation", res.Metrics.Cycles, res.Metrics.Cycles-lastSeen)
	}
	if res.Metrics.Generated == 0 {
		t.Error("partial result carries no accumulated statistics")
	}
	// A cut-short run must not masquerade as a saturated network, and its
	// rates are normalised over the cycles that actually ran.
	if res.Metrics.Saturated {
		t.Error("partial result reports saturation")
	}
	if res.Metrics.OfferedLoad < 0.05 || res.Metrics.OfferedLoad > 0.2 {
		t.Errorf("partial offered load %.4f not normalised over elapsed cycles", res.Metrics.OfferedLoad)
	}
}

// TestProgressStreaming checks the callback cadence and final completion.
func TestProgressStreaming(t *testing.T) {
	spec := RunSpec{
		Network: NetworkSpec{Preset: "t2d54"},
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.05},
		Sim:     SimSpec{WarmupCycles: 200, MeasureCycles: 800, DrainCycles: 1000, Seed: 5},
	}
	var calls int
	var last Progress
	res, err := Run(t.Context(), spec, WithProgress(500, func(p Progress) {
		calls++
		last = p
	}))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 { // cycles 0, 500, 1000, 1500 of 2000
		t.Errorf("progress called %d times, want 4", calls)
	}
	if last.TotalCycles != 2000 || last.Cycle != 1500 {
		t.Errorf("last snapshot %+v", last)
	}
	if res.Metrics.Cycles != 2000 {
		t.Errorf("completed run reports %d cycles, want 2000", res.Metrics.Cycles)
	}
}

// TestWithNetworkReuse runs two spec points against one prebuilt network.
func TestWithNetworkReuse(t *testing.T) {
	net, kind, err := BuildNetwork(NetworkSpec{Preset: "t2d54"})
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0.02, 0.05} {
		spec := RunSpec{
			Traffic: TrafficSpec{Pattern: "rnd", Rate: rate},
			Sim:     SimSpec{WarmupCycles: 100, MeasureCycles: 400, DrainCycles: 800, Seed: 5},
		}
		res, err := Run(t.Context(), spec, WithNetwork(net, kind))
		if err != nil {
			t.Fatal(err)
		}
		if res.Network.Name != "t2d54" {
			t.Errorf("result network %q", res.Network.Name)
		}
		if res.Metrics.Delivered == 0 {
			t.Errorf("rate %.2f delivered nothing", rate)
		}
	}
}

// TestRunnerErrors checks that unknown names surface as errors, not panics.
func TestRunnerErrors(t *testing.T) {
	base := RunSpec{
		Network: NetworkSpec{Preset: "t2d54"},
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.05},
		Sim:     SimSpec{WarmupCycles: 10, MeasureCycles: 10, DrainCycles: 10},
	}
	bad := base
	bad.Routing.Algorithm = "magic"
	if _, err := Run(t.Context(), bad); err == nil {
		t.Error("unknown routing accepted")
	}
	bad = base
	bad.Buffering.Scheme = "bottomless"
	if _, err := Run(t.Context(), bad); err == nil {
		t.Error("unknown scheme accepted")
	}
	bad = base
	bad.Traffic.Pattern = "xxx"
	if _, err := Run(t.Context(), bad); err == nil {
		t.Error("unknown pattern accepted")
	}
	bad = base
	bad.Traffic.Rate = 0
	if _, err := Run(t.Context(), bad); err == nil {
		t.Error("zero-rate synthetic traffic accepted")
	}
	bad = base
	bad.Network = NetworkSpec{Preset: "nope"}
	if _, err := Run(t.Context(), bad); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestRunRejectsPacketSizeOutOfRange: a packet size the engine cannot
// simulate is a spec error. 70000 flits overflows the 16-bit flit index
// (the run used to panic), and a negative size never injects (the run used
// to report zero packets and zero latency).
func TestRunRejectsPacketSizeOutOfRange(t *testing.T) {
	for _, flits := range []int{70000, -3} {
		spec := RunSpec{
			Network: NetworkSpec{Preset: "sn_subgr_54"},
			Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.9, PacketFlits: flits},
			Sim:     SimSpec{MeasureCycles: 20000, Seed: 1},
		}
		res, err := Run(context.Background(), spec)
		if err == nil || !strings.Contains(err.Error(), "packet_flits") {
			t.Errorf("packet_flits %d: result %+v, error %v; want a packet_flits range error", flits, res, err)
		}
	}
}
