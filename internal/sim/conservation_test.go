package sim_test

import (
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
	pb    routing.PathBuilder

	emitted         int64
	delivered       int64
	expectForwarded int64
}

func (c *conservingSource) Generate(t int64, rng *rng.Stream, emit func(src, dst, flits, class int)) {
	c.inner.Generate(t, rng, func(src, dst, flits, class int) {
		path, _ := c.pb.Route(c.net.NodeRouter(src), c.net.NodeRouter(dst))
		// A flit is forwarded at every router except the injection router
		// (where it enters from the NIC) and the destination (where it
		// ejects): len(path)-2 forwardings per flit.
		if hops := len(path) - 2; hops > 0 {
			c.expectForwarded += int64(flits) * int64(hops)
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
				pb := minRouting(t, net, 2)
				src := &conservingSource{
					inner: &traffic.Synthetic{N: net.N(), Rate: 0.05, PacketFlits: 6,
						Pattern: traffic.Uniform{N: net.N()}},
					net: net,
					pb:  pb,
				}
				cfg := sim.Config{
					Net:     net,
					Routing: pb,
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
