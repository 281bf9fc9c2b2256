package slimnoc

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func testSpec() RunSpec {
	spec := RunSpec{
		Name:    "round-trip",
		Network: NetworkSpec{Preset: "t2d54"},
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.1},
		Sim:     SimSpec{WarmupCycles: 500, MeasureCycles: 1500, DrainCycles: 2000, Seed: 7},
	}
	return spec
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := testSpec().Normalized()
	data, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Errorf("round trip changed the spec:\n before %+v\n after  %+v", spec, got)
	}
}

func TestSpecRoundTripReproducesMetrics(t *testing.T) {
	res1, err := Run(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Serialize the spec the run reports, re-load it, re-run.
	data, err := res1.Spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(context.Background(), reloaded)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Metrics.Delivered == 0 {
		t.Fatal("run delivered no packets; golden comparison is vacuous")
	}
	if res1.Metrics != res2.Metrics {
		t.Errorf("reloaded spec did not reproduce metrics:\n first  %+v\n second %+v",
			res1.Metrics, res2.Metrics)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"network": {"preset": "t2d54"}, "speling": 1}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	if _, err := ParseSpec([]byte(`{"network": {"preset": "t2d54", "topolgy": "sn"}}`)); err == nil {
		t.Error("unknown network field accepted")
	}
}

func TestValidate(t *testing.T) {
	good := testSpec()
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*RunSpec)
		want string
	}{
		{"no network", func(s *RunSpec) { s.Network = NetworkSpec{} }, "network"},
		{"bad preset", func(s *RunSpec) { s.Network = NetworkSpec{Preset: "nope"} }, "preset"},
		{"bad topology", func(s *RunSpec) { s.Network = NetworkSpec{Topology: "hypercube"} }, "topology"},
		{"bad routing", func(s *RunSpec) { s.Routing.Algorithm = "magic" }, "routing"},
		{"bad scheme", func(s *RunSpec) { s.Buffering.Scheme = "infinite" }, "scheme"},
		{"negative cb_cap", func(s *RunSpec) { s.Buffering.CBCap = -3 }, "cb_cap = -3"},
		{"negative edge_cap", func(s *RunSpec) { s.Buffering.EdgeCap = -1 }, "edge_cap = -1"},
		{"bad pattern", func(s *RunSpec) { s.Traffic.Pattern = "xxx" }, "pattern"},
	}
	for _, c := range cases {
		s := testSpec()
		c.mut(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestNormalizedDefaults(t *testing.T) {
	s := RunSpec{Network: NetworkSpec{Preset: "T2D54"}, Traffic: TrafficSpec{Trace: "fft"}}.Normalized()
	if s.Routing.Algorithm != "auto" || s.Routing.VCs != 2 {
		t.Errorf("routing defaults: %+v", s.Routing)
	}
	if s.Buffering.Scheme != "eb" {
		t.Errorf("buffering default: %+v", s.Buffering)
	}
	if s.Traffic.Pattern != "trace" {
		t.Errorf("trace spec should default pattern to trace, got %q", s.Traffic.Pattern)
	}
	if s.Traffic.PacketFlits != 6 {
		t.Errorf("packet flits default: %d", s.Traffic.PacketFlits)
	}
	if s.Network.Preset != "t2d54" {
		t.Errorf("preset not lowercased: %q", s.Network.Preset)
	}
}

func TestHopsPerCycle(t *testing.T) {
	if h := (RunSpec{}).HopsPerCycle(); h != 1 {
		t.Errorf("base H = %d, want 1", h)
	}
	if h := (RunSpec{SMART: true}).HopsPerCycle(); h != 9 {
		t.Errorf("SMART H = %d, want 9", h)
	}
	if h := (RunSpec{SMART: true, HopFactor: 4}).HopsPerCycle(); h != 4 {
		t.Errorf("explicit H = %d, want 4", h)
	}
}
