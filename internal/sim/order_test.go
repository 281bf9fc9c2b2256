// Wormhole-order invariant for the wires: every input VC is fed by exactly
// one link lane, and what the lane carries must reach the input in wormhole
// order — the flits of one packet back to back with consecutive indices, a
// new head only right after a tail. Flits ride arrival wheels rather than
// per-lane FIFOs, so the order is the engine's to keep (the per-lane
// last-arrival rule in sendFlit, and the stall FIFOs of elastic schemes).

package sim

import (
	"fmt"
	"testing"
)

// checkLaneOrder asserts, between cycles, that every input VC's stream is in
// wormhole order: the flits buffered at the input, then those stalled at the
// end of its lane, then those still on the wire in the order they land (by
// landing cycle; within a cycle in the order they were sent).
func checkLaneOrder(t *testing.T, s *Sim) {
	t.Helper()
	wire := make([][]flit, len(s.laneLast))
	for di := range s.doms {
		for rd := range s.doms[di].out {
			w := &s.doms[di].out[rd]
			h := int64(len(w.buckets))
			for at := s.now + 1; at < s.now+h; at++ {
				for _, a := range w.buckets[at&(h-1)] {
					lane := int(a.link)*s.vcs + int(a.vc)
					wire[lane] = append(wire[lane], a.f)
				}
			}
		}
	}
	for li := range s.links {
		l := &s.links[li]
		for vc := 0; vc < s.vcs; vc++ {
			lane := li*s.vcs + vc
			slot := int(l.recvVB) + vc
			buffered := int(s.inLen[slot])
			var stream []flit
			if buffered > 0 {
				stream = append(stream, s.inFront[slot])
			}
			for i := 1; i < buffered; i++ {
				stream = append(stream, s.inBuf[slabPos(s.inOff[slot], s.inHead[slot], int32(i-1), s.inCap[slot]-1)])
			}
			if s.stall != nil {
				st := s.stall[lane]
				for i := int32(0); i < st.n; i++ {
					stream = append(stream, s.stallBuf[slabPos(st.off, st.head, i, st.size)])
				}
			}
			stream = append(stream, wire[lane]...)
			for i := 1; i < len(stream); i++ {
				prev, f := stream[i-1], stream[i]
				ok := f.head()
				if !prev.tail() {
					ok = f.pkt == prev.pkt && f.idx == prev.idx+1
				}
				if !ok {
					t.Fatalf("cycle %d, link %d->%d vc %d: flit %d of packet %d follows flit %d of packet %d (%d buffered, then %s)",
						s.now, l.from, l.to, vc, f.idx, f.pkt.id, prev.idx, prev.pkt.id, buffered, streamString(stream[buffered:]))
				}
			}
		}
	}
}

func streamString(fs []flit) string {
	out := ""
	for _, f := range fs {
		out += fmt.Sprintf(" %d.%d", f.pkt.id, f.idx)
	}
	return "[" + out + " ]"
}

// TestLaneWormholeOrder runs the elastic schemes at saturation, where lanes
// stall and CBR mixes its 2-cycle bypass and 4-cycle buffered paths on one
// output VC, and checks every lane's order after every cycle, with and
// without SMART.
func TestLaneWormholeOrder(t *testing.T) {
	for _, sc := range []struct {
		name   string
		scheme BufferScheme
	}{{"CBR", CentralBuffer}, {"EL", ElasticLinks}} {
		for _, h := range []int{1, 9} {
			t.Run(fmt.Sprintf("%s/H%d", sc.name, h), func(t *testing.T) {
				cfg := newEngineSim(t, sc.scheme, 0.40).cfg
				cfg.H = h
				cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 200, 1000, 300
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				stalls := 0
				total := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles
				for s.now = 0; s.now < total; s.now++ {
					s.step()
					checkLaneOrder(t, s)
					for di := range s.doms {
						stalls += len(s.doms[di].stalled)
					}
				}
				if stalls == 0 || s.doneMeasured == 0 {
					t.Fatalf("%d lane stalls, %d packets delivered: the run never exercised backpressure", stalls, s.doneMeasured)
				}
			})
		}
	}
}
