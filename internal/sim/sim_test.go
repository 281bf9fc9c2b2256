package sim_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func snNetwork(t testing.TB, q, p int, l core.Layout) *topo.Network {
	t.Helper()
	s, err := core.New(core.Params{Q: q, P: p})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Network(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// minTable compiles the generic minimal route table of net over vcs VCs.
func minTable(t testing.TB, net *topo.Network, vcs int) *routing.RouteTable {
	t.Helper()
	tab, err := routing.NewTable(net, routing.Kind{Class: routing.ClassGeneric}, vcs)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// runCfg builds and runs a short simulation.
func runCfg(t testing.TB, cfg sim.Config) (*sim.Sim, sim.Result) {
	t.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, s.Run()
}

func shortWindow(cfg *sim.Config) {
	cfg.WarmupCycles = 1500
	cfg.MeasureCycles = 4000
	cfg.DrainCycles = 4000
}

func TestConservationLowLoad(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	cfg := sim.Config{
		Net:   net,
		Table: minTable(t, net, 2),
		Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.05, PacketFlits: 6,
			Pattern: traffic.Uniform{N: net.N()}},
		Seed: 3,
	}
	shortWindow(&cfg)
	s, res := runCfg(t, cfg)
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if s.InFlight() != 0 {
		t.Fatalf("%d flits lost or stuck after drain", s.InFlight())
	}
	if res.Saturated {
		t.Error("low load should not saturate")
	}
	if res.Delivered < res.Generated*95/100 {
		t.Errorf("delivered %d of %d tracked packets", res.Delivered, res.Generated)
	}
}

func TestZeroLoadLatencySN(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	cfg := sim.Config{
		Net:   net,
		Table: minTable(t, net, 2),
		Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.008, PacketFlits: 6,
			Pattern: traffic.Uniform{N: net.N()}},
		Seed: 7,
	}
	shortWindow(&cfg)
	_, res := runCfg(t, cfg)
	// Zero-load: 6-flit serialization + <=2 router traversals (2 cycles
	// each) + 2 multi-cycle wires + ejection. Expect roughly 12..35 cycles.
	if res.AvgLatency < 8 || res.AvgLatency > 40 {
		t.Errorf("zero-load latency %.1f cycles out of plausible range", res.AvgLatency)
	}
	if res.AvgHops < 1.0 || res.AvgHops > 2.0 {
		t.Errorf("avg hops %.2f, want within (1,2] for diameter-2 SN", res.AvgHops)
	}
}

func TestDeterminism(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	make := func() sim.Result {
		cfg := sim.Config{
			Net:   net,
			Table: minTable(t, net, 2),
			Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.1, PacketFlits: 6,
				Pattern: traffic.Uniform{N: net.N()}},
			Seed: 11,
		}
		shortWindow(&cfg)
		_, res := runCfg(t, cfg)
		return res
	}
	a, b := make(), make()
	if a != b {
		t.Errorf("same seed gave different results:\n%+v\n%+v", a, b)
	}
}

func TestSaturationDetection(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	cfg := sim.Config{
		Net:   net,
		Table: minTable(t, net, 2),
		// Far beyond capacity.
		Traffic: &traffic.Synthetic{N: net.N(), Rate: 2.0, PacketFlits: 6,
			Pattern: traffic.Uniform{N: net.N()}},
		Seed: 5,
	}
	shortWindow(&cfg)
	_, res := runCfg(t, cfg)
	if !res.Saturated {
		t.Error("rate 2.0 flits/node/cycle must saturate")
	}
	if res.Throughput >= 2.0 {
		t.Errorf("accepted throughput %.2f cannot reach offered 2.0", res.Throughput)
	}
	if res.Throughput <= 0 {
		t.Error("saturated network should still deliver flits")
	}
}

func TestLatencyIncreasesWithLoad(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	lat := func(rate float64) float64 {
		cfg := sim.Config{
			Net:   net,
			Table: minTable(t, net, 2),
			Traffic: &traffic.Synthetic{N: net.N(), Rate: rate, PacketFlits: 6,
				Pattern: traffic.Uniform{N: net.N()}},
			Seed: 13,
		}
		shortWindow(&cfg)
		_, res := runCfg(t, cfg)
		return res.AvgLatency
	}
	low, high := lat(0.01), lat(0.30)
	if high <= low {
		t.Errorf("latency at load 0.30 (%.1f) should exceed load 0.01 (%.1f)", high, low)
	}
}

// TestSMARTReducesLatency: with multi-cycle wires, H=9 must cut latency on a
// layout with long links.
func TestSMARTReducesLatency(t *testing.T) {
	net := snNetwork(t, 9, 8, core.LayoutBasic) // long wires
	run := func(h int) float64 {
		cfg := sim.Config{
			Net:     net,
			Table:   minTable(t, net, 2),
			Buffers: core.Buffers{H: h},
			Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.02, PacketFlits: 6,
				Pattern: traffic.Uniform{N: net.N()}},
			Seed: 17,
		}
		shortWindow(&cfg)
		_, res := runCfg(t, cfg)
		return res.AvgLatency
	}
	noSmart, smart := run(1), run(9)
	if smart >= noSmart {
		t.Errorf("SMART latency %.1f should beat no-SMART %.1f", smart, noSmart)
	}
}

// TestAllSchemesDeliver: edge buffers, central buffers and elastic links all
// deliver the full tracked load at moderate rates.
func TestAllSchemesDeliver(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	for _, sc := range []struct {
		name   string
		scheme core.Scheme
	}{
		{"EB", core.EB},
		{"CBR", core.CBR},
		{"EL", core.EL},
	} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg := sim.Config{
				Net:     net,
				Table:   minTable(t, net, 2),
				Buffers: core.Buffers{Scheme: sc.scheme},
				Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.1, PacketFlits: 6,
					Pattern: traffic.Uniform{N: net.N()}},
				Seed: 19,
			}
			shortWindow(&cfg)
			s, res := runCfg(t, cfg)
			if res.Delivered < res.Generated*95/100 {
				t.Errorf("%s: delivered %d of %d", sc.name, res.Delivered, res.Generated)
			}
			if s.InFlight() != 0 {
				t.Errorf("%s: %d flits stuck", sc.name, s.InFlight())
			}
		})
	}
}

// TestAllTopologiesDeliver: the simulator handles every baseline topology
// with its deadlock-free routing.
func TestAllTopologiesDeliver(t *testing.T) {
	cases := []struct {
		name string
		net  *topo.Network
		kind routing.Kind
	}{
		{"mesh", topo.Mesh2D(8, 8, 3), routing.Kind{Class: routing.ClassMesh, RX: 8, RY: 8}},
		{"torus", topo.Torus2D(8, 8, 3), routing.Kind{Class: routing.ClassTorus, RX: 8, RY: 8}},
		{"fbf", topo.FBF(8, 8, 3), routing.Kind{Class: routing.ClassFBF, RX: 8, RY: 8}},
		{"pfbf", topo.PFBF(2, 2, 4, 4, 3), routing.Kind{Class: routing.ClassPFBF, PX: 2, PY: 2, RX: 4, RY: 4}},
		{"sn", snNetwork(t, 5, 4, core.LayoutSubgroup), routing.Kind{Class: routing.ClassGeneric}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tab, err := routing.NewTable(c.net, c.kind, 2)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{
				Net:   c.net,
				Table: tab,
				Traffic: &traffic.Synthetic{N: c.net.N(), Rate: 0.05, PacketFlits: 6,
					Pattern: traffic.Uniform{N: c.net.N()}},
				Seed: 23,
			}
			shortWindow(&cfg)
			s, res := runCfg(t, cfg)
			if res.Delivered < res.Generated*95/100 {
				t.Errorf("delivered %d of %d", res.Delivered, res.Generated)
			}
			if s.InFlight() != 0 {
				t.Errorf("%d flits stuck", s.InFlight())
			}
		})
	}
}

// TestAdversarialPatternsDeliver exercises ADV1/ADV2/SHF/REV on SN.
func TestAdversarialPatternsDeliver(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	for _, name := range []string{"ADV1", "ADV2", "SHF", "REV", "ASYM"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := sim.Config{
				Net:   net,
				Table: minTable(t, net, 2),
				Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.05, PacketFlits: 6,
					Pattern: traffic.PatternByName(name, net)},
				Seed: 29,
			}
			shortWindow(&cfg)
			s, res := runCfg(t, cfg)
			if res.Delivered < res.Generated*90/100 {
				t.Errorf("delivered %d of %d", res.Delivered, res.Generated)
			}
			if s.InFlight() != 0 {
				t.Errorf("%d flits stuck", s.InFlight())
			}
		})
	}
}

// TestUGALDelivers: adaptive routing with 4 VCs on SN, random + asymmetric.
func TestUGALDelivers(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	for _, global := range []bool{false, true} {
		cfg := sim.Config{
			Net:      net,
			Buffers:  core.Buffers{VCs: 4},
			Adaptive: &sim.UGAL{Global: global},
			Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.1, PacketFlits: 6,
				Pattern: traffic.Asymmetric{N: net.N()}},
			Seed: 31,
		}
		shortWindow(&cfg)
		s, res := runCfg(t, cfg)
		if res.Delivered < res.Generated*90/100 {
			t.Errorf("global=%v: delivered %d of %d", global, res.Delivered, res.Generated)
		}
		if s.InFlight() != 0 {
			t.Errorf("global=%v: %d flits stuck", global, s.InFlight())
		}
	}
}

// TestMinAdaptiveDelivers: XY-ADAPT-style minimal-adaptive on FBF.
func TestMinAdaptiveDelivers(t *testing.T) {
	net := topo.FBF(10, 5, 4)
	cfg := sim.Config{
		Net:      net,
		Adaptive: &sim.MinAdaptive{},
		Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.1, PacketFlits: 6,
			Pattern: traffic.Uniform{N: net.N()}},
		Seed: 37,
	}
	shortWindow(&cfg)
	s, res := runCfg(t, cfg)
	if res.Delivered < res.Generated*95/100 {
		t.Errorf("delivered %d of %d", res.Delivered, res.Generated)
	}
	if s.InFlight() != 0 {
		t.Errorf("%d flits stuck", s.InFlight())
	}
}

// fixedWaypoint routes every packet through one waypoint router.
type fixedWaypoint struct{ via, viaHops int }

func (w fixedWaypoint) Choose(*sim.Sim, *rng.Stream, int, int) (int, int) { return w.via, w.viaHops }

// onePacket emits one 6-flit packet at cycle at.
type onePacket struct {
	at       int64
	src, dst int
}

func (o *onePacket) Generate(t int64, _ *rng.Stream, emit func(src, dst, flits, class int)) {
	if t == o.at {
		emit(o.src, o.dst, 6, 0)
	}
}

func (o *onePacket) OnDelivered(int64, int, int, int, int, func(int, int, int, int)) {}

// TestWaypointPassesDestination: a Valiant route may pass through its
// destination on its way to the waypoint, and ejects only on its way back.
// On sn_subgr_200 the route from router 0 through the waypoint mid, two
// hops away via router x, to x is 0 -> x -> mid -> x: three hops, not one.
func TestWaypointPassesDestination(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	tab := minTable(t, net, 4)
	mid := 1
	for tab.Hops(0, mid) != 2 {
		mid++
	}
	x := tab.AppendPath(nil, 0, mid)[1]
	cfg := sim.Config{
		Net:           net,
		Buffers:       core.Buffers{VCs: 4},
		Adaptive:      fixedWaypoint{via: mid, viaHops: 2},
		Traffic:       &onePacket{at: 10, src: 0, dst: x * net.P},
		WarmupCycles:  5,
		MeasureCycles: 100,
		DrainCycles:   100,
	}
	if _, res := runCfg(t, cfg); res.Delivered != 1 || res.AvgHops != 3 {
		t.Fatalf("0 -> %d -> %d -> %d: delivered %d packets over %v hops, want 1 over 3", x, mid, x, res.Delivered, res.AvgHops)
	}
}

// replySource tests the OnDelivered hook: every class-1 packet triggers a
// class-2 reply from the destination.
type replySource struct {
	n       int
	emitted int
	replies int
}

func (r *replySource) Generate(t int64, rng *rng.Stream, emit func(src, dst, flits, class int)) {
	if t < 50 && r.emitted < 20 {
		emit(int(t)%r.n, (int(t)+r.n/2)%r.n, 2, 1)
		r.emitted++
	}
}

func (r *replySource) OnDelivered(t int64, src, dst, flits, class int, emit func(src, dst, flits, class int)) {
	if class == 1 {
		emit(dst, src, 6, 2)
		r.replies++
	}
}

func TestReplyGeneration(t *testing.T) {
	net := snNetwork(t, 3, 3, core.LayoutSubgroup)
	src := &replySource{n: net.N()}
	cfg := sim.Config{
		Net:     net,
		Table:   minTable(t, net, 2),
		Traffic: src,
		Seed:    41,
	}
	shortWindow(&cfg)
	s, _ := runCfg(t, cfg)
	if src.replies != src.emitted {
		t.Errorf("replies %d != requests %d", src.replies, src.emitted)
	}
	if s.InFlight() != 0 {
		t.Errorf("%d flits stuck", s.InFlight())
	}
}

// TestCBRBypassLatency: at very low load, CBR's bypass path should give
// latency comparable to edge buffers (within a few cycles).
func TestCBRBypassLatency(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	run := func(scheme core.Scheme) float64 {
		cfg := sim.Config{
			Net:     net,
			Table:   minTable(t, net, 2),
			Buffers: core.Buffers{Scheme: scheme},
			Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.008, PacketFlits: 6,
				Pattern: traffic.Uniform{N: net.N()}},
			Seed: 43,
		}
		shortWindow(&cfg)
		_, res := runCfg(t, cfg)
		return res.AvgLatency
	}
	eb, cbr := run(core.EB), run(core.CBR)
	if cbr > eb+6 {
		t.Errorf("CBR zero-load latency %.1f too far above EB %.1f", cbr, eb)
	}
}

// TestThroughputMatchesOfferedAtLowLoad: open-loop accepted == offered when
// far below saturation.
func TestThroughputMatchesOfferedAtLowLoad(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	cfg := sim.Config{
		Net:   net,
		Table: minTable(t, net, 2),
		Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.05, PacketFlits: 6,
			Pattern: traffic.Uniform{N: net.N()}},
		Seed: 47,
	}
	shortWindow(&cfg)
	_, res := runCfg(t, cfg)
	if res.Throughput < 0.04 || res.Throughput > 0.06 {
		t.Errorf("throughput %.3f should track offered 0.05", res.Throughput)
	}
}

// TestTableForAnotherNetwork: a route table walks the adjacency it was
// compiled over, so New refuses one compiled for another network even when
// the router and VC counts match — here the healthy SN's table on a copy
// with a tenth of its links removed, whose routes would cross missing links.
func TestTableForAnotherNetwork(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	healthy := minTable(t, net, 2)
	damaged := net.RemoveRandomLinks(0.1, 7)
	_, err := sim.New(sim.Config{Net: damaged, Table: healthy,
		Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.1, PacketFlits: 2, Pattern: traffic.Uniform{N: net.N()}},
	})
	if err == nil || !strings.Contains(err.Error(), "another network") {
		t.Fatalf("New with the healthy network's table on the damaged one: err = %v, want a refusal naming another network", err)
	}
	if _, err := sim.New(sim.Config{Net: damaged, Table: minTable(t, damaged, 2),
		Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.1, PacketFlits: 2, Pattern: traffic.Uniform{N: net.N()}},
	}); err != nil {
		t.Fatalf("New with the damaged network's own table: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := sim.New(sim.Config{}); err == nil {
		t.Error("empty config must fail")
	}
	clos := topo.FoldedClos(4, 2, 2)
	if _, err := sim.New(sim.Config{Net: clos,
		Table:   minTable(t, clos, 2),
		Traffic: &traffic.Synthetic{N: 8, Rate: 0.1, PacketFlits: 2, Pattern: traffic.Uniform{N: 8}},
	}); err == nil {
		t.Error("indirect networks must be rejected")
	}
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	if _, err := sim.New(sim.Config{Net: net, Table: minTable(t, net, 2), InjQueueCap: -1,
		Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.1, PacketFlits: 2, Pattern: traffic.Uniform{N: net.N()}},
	}); err == nil {
		t.Error("a negative injection queue capacity must be rejected")
	}
	// Flit indices are uint16, and a negative size never injects.
	for _, flits := range []int{-3, 70000} {
		if _, err := sim.New(sim.Config{Net: net, Table: minTable(t, net, 2), PacketFlits: flits,
			Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.1, PacketFlits: 2, Pattern: traffic.Uniform{N: net.N()}},
		}); err == nil || !strings.Contains(err.Error(), "PacketFlits") {
			t.Errorf("PacketFlits = %d: error %v, want a PacketFlits range error", flits, err)
		}
	}
}

// TestVCCountValidation: VC counts that would overflow the uint8 per-hop
// assignment (and the historical 6-bit central-buffer key packing) must be
// rejected at construction, not silently collide.
func TestVCCountValidation(t *testing.T) {
	net := snNetwork(t, 3, 3, core.LayoutSubgroup)
	mk := func(vcs int) error {
		_, err := sim.New(sim.Config{
			Net: net,
			// The table is compiled over the VC count under test (over 1
			// for the negative count, which New refuses before the table).
			Table:   minTable(t, net, max(vcs, 1)),
			Buffers: core.Buffers{VCs: vcs},
			Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.1, PacketFlits: 6,
				Pattern: traffic.Uniform{N: net.N()}},
		})
		return err
	}
	if err := mk(64); err == nil {
		t.Error("VCs = 64 must be rejected")
	}
	if err := mk(-1); err == nil {
		t.Error("negative VCs must be rejected")
	}
	if err := mk(63); err != nil {
		t.Errorf("VCs = 63 should be accepted: %v", err)
	}
}

// TestCBRPathStats: at near-zero load almost all flits take the bypass
// path; at saturating load a substantial share is buffered.
func TestCBRPathStats(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	run := func(rate float64) (bypass, buffered int64) {
		cfg := sim.Config{
			Net:     net,
			Table:   minTable(t, net, 2),
			Buffers: core.Buffers{Scheme: core.CBR},
			Traffic: &traffic.Synthetic{N: net.N(), Rate: rate, PacketFlits: 6,
				Pattern: traffic.Uniform{N: net.N()}},
			Seed: 53,
		}
		shortWindow(&cfg)
		s, _ := runCfg(t, cfg)
		return s.CBPathStats()
	}
	byLow, bufLow := run(0.008)
	if byLow == 0 {
		t.Fatal("no bypass flits at low load")
	}
	lowFrac := float64(bufLow) / float64(byLow+bufLow)
	if lowFrac > 0.10 {
		t.Errorf("low load buffered fraction %.2f, want near 0 (CB bypass)", lowFrac)
	}
	byHigh, bufHigh := run(0.5)
	highFrac := float64(bufHigh) / float64(byHigh+bufHigh)
	if highFrac <= lowFrac {
		t.Errorf("buffered fraction should grow with load: %.3f -> %.3f", lowFrac, highFrac)
	}
}

// TestUGALDivertsUnderAdversarialLoad: under a pattern that hammers fixed
// minimal paths, UGAL should deliver strictly more throughput than static
// minimal routing near saturation.
func TestUGALDivertsUnderAdversarialLoad(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	run := func(policy sim.AdaptivePolicy) float64 {
		cfg := sim.Config{
			Net:      net,
			Table:    minTable(t, net, 4),
			Buffers:  core.Buffers{VCs: 4},
			Adaptive: policy,
			Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.5, PacketFlits: 6,
				Pattern: traffic.PatternByName("ADV2", net)},
			Seed: 59,
		}
		shortWindow(&cfg)
		_, res := runCfg(t, cfg)
		return res.Throughput
	}
	static := run(nil)
	ugalG := run(&sim.UGAL{Global: true})
	if ugalG <= static*1.02 {
		t.Errorf("UGAL-G throughput %.4f should clearly beat static %.4f on adversarial traffic",
			ugalG, static)
	}
}

// TestSmallestSN: the q=2 configuration (16 nodes, 8 routers, k'=3) from
// Table 2 simulates correctly end to end.
func TestSmallestSN(t *testing.T) {
	net := snNetwork(t, 2, 2, core.LayoutSubgroup)
	cfg := sim.Config{
		Net:   net,
		Table: minTable(t, net, 2),
		Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.1, PacketFlits: 6,
			Pattern: traffic.Uniform{N: net.N()}},
		Seed: 61,
	}
	shortWindow(&cfg)
	s, res := runCfg(t, cfg)
	if res.Delivered != res.Generated {
		t.Errorf("delivered %d of %d", res.Delivered, res.Generated)
	}
	if s.InFlight() != 0 {
		t.Errorf("%d flits stuck", s.InFlight())
	}
}

// TestVariablePacketSizes: mixing 2- and 6-flit packets (the trace message
// model) conserves every flit.
func TestVariablePacketSizes(t *testing.T) {
	net := snNetwork(t, 3, 3, core.LayoutSubgroup)
	src := &mixedSource{n: net.N()}
	cfg := sim.Config{
		Net:     net,
		Table:   minTable(t, net, 2),
		Traffic: src,
		Seed:    67,
	}
	shortWindow(&cfg)
	s, res := runCfg(t, cfg)
	if s.InFlight() != 0 {
		t.Errorf("%d flits stuck", s.InFlight())
	}
	if res.Delivered < res.Generated*95/100 {
		t.Errorf("delivered %d of %d", res.Delivered, res.Generated)
	}
}

type mixedSource struct{ n int }

func (m *mixedSource) Generate(tt int64, rng *rng.Stream, emit func(src, dst, flits, class int)) {
	for node := 0; node < m.n; node++ {
		if rng.Float64() < 0.01 {
			flits := 2
			if rng.Intn(2) == 1 {
				flits = 6
			}
			d := rng.Intn(m.n)
			if d == node {
				d = (d + 1) % m.n
			}
			emit(node, d, flits, 0)
		}
	}
}

func (m *mixedSource) OnDelivered(tt int64, src, dst, flits, class int, emit func(src, dst, flits, class int)) {
}

// TestEBVarBeatsEBSmallAtHighLoad: on long-wire layouts without SMART,
// buffers sized for full utilisation (EB-Var) should reach at least the
// throughput of 5-flit buffers (Fig. 11's EB-Small penalty).
func TestEBVarBeatsEBSmallAtHighLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping SN-L high-load sweep in short mode")
	}
	net := snNetwork(t, 9, 8, core.LayoutBasic)
	run := func(scheme core.Scheme) float64 {
		cfg := sim.Config{
			Net:     net,
			Table:   minTable(t, net, 2),
			Buffers: core.Buffers{Scheme: scheme},
			Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.4, PacketFlits: 6,
				Pattern: traffic.Uniform{N: net.N()}},
			Seed: 71,
		}
		shortWindow(&cfg)
		_, res := runCfg(t, cfg)
		return res.Throughput
	}
	small := run(core.EB)
	varSized := run(core.EBVar)
	if varSized < small*0.98 {
		t.Errorf("EB-Var throughput %.4f should not trail EB-Small %.4f", varSized, small)
	}
}

// TestP99AtLeastMean: sanity of the latency percentile plumbing.
func TestP99AtLeastMean(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	cfg := sim.Config{
		Net:   net,
		Table: minTable(t, net, 2),
		Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.2, PacketFlits: 6,
			Pattern: traffic.Uniform{N: net.N()}},
		Seed: 73,
	}
	shortWindow(&cfg)
	_, res := runCfg(t, cfg)
	if res.P99Latency < res.AvgLatency {
		t.Errorf("p99 %.1f below mean %.1f", res.P99Latency, res.AvgLatency)
	}
}

// TestDefaultDomains checks what New and NewEpisodeEngine build when
// EngineJobs is left at 0: New follows the domain-count rule (two domains
// for the 1250-router sn_subgr_10000 on two Ps, one for a 50-router network
// and for any network on one P), while an episode engine stays on one domain.
func TestDefaultDomains(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	small := snNetwork(t, 5, 4, core.LayoutSubgroup)
	large := snNetwork(t, 25, 8, core.LayoutSubgroup)
	largeTab := minTable(t, large, 2)
	for _, c := range []struct {
		name  string
		net   *topo.Network
		tab   *routing.RouteTable
		procs int
		want  int
	}{
		{"sn_subgr_200", small, minTable(t, small, 2), 2, 1},
		{"sn_subgr_10000", large, largeTab, 2, 2},
		{"sn_subgr_10000/one-P", large, largeTab, 1, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			runtime.GOMAXPROCS(c.procs)
			cfg := sim.Config{Net: c.net, Table: c.tab, Buffers: core.Buffers{VCs: 2},
				Traffic: &traffic.Synthetic{N: c.net.N(), Rate: 0.01, PacketFlits: 6,
					Pattern: traffic.Uniform{N: c.net.N()}}}
			s, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Domains(); got != c.want {
				t.Errorf("New: %d domains, want %d", got, c.want)
			}
			cfg.Traffic = nil
			e, err := sim.NewEpisodeEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := e.Domains(); got != 1 {
				t.Errorf("NewEpisodeEngine: %d domains, want 1", got)
			}
		})
	}
}

// TestSteadyStateZeroAllocsWorkloads extends the zero-allocation contract to
// the traffic package's sources, driven by the loop the engine runs (a step,
// then a skip decision): bursty arrivals (idle/active phase churn in the
// active sets), the request-reply closed loop (OnDelivered-emitted replies
// riding the packet freelist through the ejection path), and a closed loop
// of two requesters, which leaves the network idle often enough that the
// calendar asks the source's NextFire.
func TestSteadyStateZeroAllocsWorkloads(t *testing.T) {
	for _, sc := range []struct {
		name string
		src  func(n int) sim.Source
	}{
		{"Bursty", func(n int) sim.Source {
			return &traffic.Synthetic{N: n, Rate: 0.06, PacketFlits: 6,
				Pattern: traffic.Uniform{N: n}, Process: traffic.NewOnOff(n, 8, 0.25)}
		}},
		{"ReqReply", func(n int) sim.Source {
			return &traffic.ReqReply{N: n, Window: 4, ReqFlits: 2, ReplyFlits: 6, Pattern: traffic.Uniform{N: n}}
		}},
		{"ReqReply/idle", func(int) sim.Source {
			return &traffic.ReqReply{N: 2, Window: 1, ReqFlits: 2, ReplyFlits: 6, Pattern: traffic.Uniform{N: 2}}
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			net := snNetwork(t, 5, 4, core.LayoutSubgroup)
			s, err := sim.New(sim.Config{
				Net:           net,
				Table:         minTable(t, net, 2),
				Buffers:       core.Buffers{VCs: 2, Scheme: core.EB},
				Traffic:       sc.src(net.N()),
				Seed:          211,
				WarmupCycles:  2000,
				MeasureCycles: 20000,
				DrainCycles:   4000,
			})
			if err != nil {
				t.Fatal(err)
			}
			allocs, measured := s.CalendarAllocs(2000, 500)
			if allocs != 0 {
				t.Fatalf("steady-state cycle loop allocates %.2f times per cycle, want 0", allocs)
			}
			if measured == 0 {
				t.Fatal("measurement window delivered nothing; test exercised an idle network")
			}
		})
	}
}
