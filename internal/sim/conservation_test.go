package sim_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// conservingSource wraps a synthetic source and independently accounts the
// flit traffic it emits: for every packet it computes, from the same static
// routes the simulator uses, how many intermediate-router forwardings its
// flits must perform, and it counts deliveries. After a fully drained run
// these external ledgers must match the engine's internal counters exactly.
type conservingSource struct {
	inner *traffic.Synthetic
	net   *topo.Network
	tab   *routing.RouteTable

	emitted         int64
	delivered       int64
	expectForwarded int64
}

func (c *conservingSource) Generate(t int64, rng *rng.Stream, emit func(src, dst, flits, class int)) {
	c.inner.Generate(t, rng, func(src, dst, flits, class int) {
		// A flit is forwarded at every router except the injection router
		// (where it enters from the NIC) and the destination (where it
		// ejects): hops-1 forwardings per flit.
		if fwd := c.tab.Hops(c.net.NodeRouter(src), c.net.NodeRouter(dst)) - 1; fwd > 0 {
			c.expectForwarded += int64(flits) * int64(fwd)
		}
		c.emitted++
		emit(src, dst, flits, class)
	})
}

func (c *conservingSource) OnDelivered(t int64, src, dst, flits, class int, emit func(src, dst, flits, class int)) {
	c.delivered++
}

// TestFlitConservation pins the engine's conservation invariants after a
// fully drained run, across all three buffer schemes and both SMART
// settings: no flit is left in flight, every emitted packet is delivered,
// the engine forwarded exactly the flit-hops the routes demand, and for the
// central-buffer router bypass+buffered accounts for every forwarding.
func TestFlitConservation(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	for _, sc := range []struct {
		name   string
		scheme sim.BufferScheme
	}{
		{"EB", sim.EdgeBuffers},
		{"CBR", sim.CentralBuffer},
		{"EL", sim.ElasticLinks},
	} {
		for _, h := range []int{1, 9} {
			sc, h := sc, h
			t.Run(sc.name+"_H"+string(rune('0'+h)), func(t *testing.T) {
				tab := minTable(t, net, 2)
				src := &conservingSource{
					inner: &traffic.Synthetic{N: net.N(), Rate: 0.05, PacketFlits: 6,
						Pattern: traffic.Uniform{N: net.N()}},
					net: net,
					tab: tab,
				}
				cfg := sim.Config{
					Net:     net,
					Table:   tab,
					Scheme:  sc.scheme,
					H:       h,
					Traffic: src,
					Seed:    83,
				}
				shortWindow(&cfg)
				s, _ := runCfg(t, cfg)
				if got := s.InFlight(); got != 0 {
					t.Errorf("InFlight = %d after drain, want 0", got)
				}
				if src.delivered != src.emitted {
					t.Errorf("delivered %d of %d emitted packets", src.delivered, src.emitted)
				}
				if got := s.ForwardedFlits(); got != src.expectForwarded {
					t.Errorf("engine forwarded %d flits, routes demand %d", got, src.expectForwarded)
				}
				bypass, buffered := s.CBPathStats()
				if sc.scheme == sim.CentralBuffer {
					if bypass+buffered != s.ForwardedFlits() {
						t.Errorf("bypass %d + buffered %d != forwarded %d",
							bypass, buffered, s.ForwardedFlits())
					}
					if bypass == 0 {
						t.Error("no bypass traffic at low load")
					}
				} else if bypass != 0 || buffered != 0 {
					t.Errorf("non-CBR scheme recorded CB path stats: %d/%d", bypass, buffered)
				}
			})
		}
	}
}

// TestStuckAccountsEveryFlit pins Stuck's census against the engine's own
// in-flight counter. Saturated runs of every buffer scheme, serial and on
// four domains, are stopped between cycles at regular points; each time,
// every flit InFlight counts must sit in exactly one place Stuck reports:
// an input buffer, a wire (in flight, or stalled at a full input latch), an
// injection queue, a central buffer, or the ejection pipeline.
func TestStuckAccountsEveryFlit(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	for _, sc := range []struct {
		name   string
		scheme sim.BufferScheme
	}{{"EB", sim.EdgeBuffers}, {"EL", sim.ElasticLinks}, {"CBR", sim.CentralBuffer}} {
		for _, jobs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/jobs%d", sc.name, jobs), func(t *testing.T) {
				s, err := sim.New(sim.Config{
					Net:    net,
					Table:  minTable(t, net, 2),
					Scheme: sc.scheme,
					Traffic: &traffic.Synthetic{N: net.N(), Rate: 0.40, PacketFlits: 6,
						Pattern: traffic.Uniform{N: net.N()}},
					Seed:          83,
					EngineJobs:    jobs,
					WarmupCycles:  300,
					MeasureCycles: 600,
					DrainCycles:   600,
				})
				if err != nil {
					t.Fatal(err)
				}
				checks, onLinks := 0, 0
				_, err = s.RunContext(context.Background(), 37, func(p sim.Progress) {
					rep := s.Stuck()
					sum := rep.InInputBuffers + rep.OnLinks + rep.InInjQueues + rep.InCB + rep.PendingEject
					if int64(sum) != s.InFlight() {
						t.Fatalf("cycle %d: Stuck counts %d flits (inputs %d, links %d, injection %d, CB %d, eject %d), InFlight %d",
							p.Cycle, sum, rep.InInputBuffers, rep.OnLinks, rep.InInjQueues, rep.InCB, rep.PendingEject, s.InFlight())
					}
					checks++
					onLinks += rep.OnLinks
				})
				if err != nil {
					t.Fatal(err)
				}
				if checks < 10 || onLinks == 0 {
					t.Fatalf("%d census points saw %d flits on wires; the test exercised an idle network", checks, onLinks)
				}
			})
		}
	}
}

// TestBufferBoundsEveryCycle checks the bounded-buffer invariants between
// every two cycles of saturated runs of every buffer scheme, serial and on
// four domains: no input buffer or injection queue holds more than its
// capacity, the dense mirrors the router and injection scans read
// (inFront, the occupancy bitmask, injNext) equal the slabs' front
// flits, and the domains' busy sets mark exactly the routers holding flits.
// Saturation fills input buffers and injection queues to their bounds,
// which the test confirms it reached. The fbf4 case at 10 VCs has 130 input
// slots per router, so its occupancy spans three words.
func TestBufferBoundsEveryCycle(t *testing.T) {
	sn := snNetwork(t, 5, 4, core.LayoutSubgroup)
	fbf := topo.FBF(10, 5, 4)
	fbfTable, err := routing.NewTable(fbf, routing.Kind{Class: routing.ClassFBF, RX: 10, RY: 5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, nc := range []struct {
		name  string // subtest prefix
		net   *topo.Network
		table *routing.RouteTable
		vcs   int
		rate  float64
	}{
		{"", sn, minTable(t, sn, 2), 2, 0.40},
		{"fbf4_v10/", fbf, fbfTable, 10, 0.60},
	} {
		for _, sc := range []struct {
			name   string
			scheme sim.BufferScheme
		}{{"EB", sim.EdgeBuffers}, {"EL", sim.ElasticLinks}, {"CBR", sim.CentralBuffer}} {
			for _, jobs := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s%s/jobs%d", nc.name, sc.name, jobs), func(t *testing.T) {
					s, err := sim.New(sim.Config{
						Net:    nc.net,
						Table:  nc.table,
						VCs:    nc.vcs,
						Scheme: sc.scheme,
						H:      9,
						Traffic: &traffic.Synthetic{N: nc.net.N(), Rate: nc.rate, PacketFlits: 6,
							Pattern: traffic.Uniform{N: nc.net.N()}},
						Seed:          29,
						EngineJobs:    jobs,
						WarmupCycles:  200,
						MeasureCycles: 600,
						DrainCycles:   400,
					})
					if err != nil {
						t.Fatal(err)
					}
					fullInputs, fullInj := 0, 0
					_, err = s.RunContext(context.Background(), 1, func(p sim.Progress) {
						if err := s.CheckBuffers(); err != nil {
							t.Fatalf("cycle %d: %v", p.Cycle, err)
						}
						in, inj := s.FullBuffers()
						fullInputs += in
						fullInj += inj
					})
					if err != nil {
						t.Fatal(err)
					}
					if fullInputs == 0 || fullInj == 0 {
						t.Fatalf("input buffers full %d times, injection queues %d times: the run never reached the bounds", fullInputs, fullInj)
					}
				})
			}
		}
	}
}
