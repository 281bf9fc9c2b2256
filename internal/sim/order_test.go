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

	"repro/internal/core"
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
				if !prev.tail(s.pkts[prev.pkt]) {
					ok = f.pkt == prev.pkt && f.idx == prev.idx+1
				}
				if !ok {
					t.Fatalf("cycle %d, link %d->%d vc %d: flit %d of packet %d follows flit %d of packet %d (%d buffered, then %s)",
						s.now, l.from, l.to, vc, f.idx, f.pkt, prev.idx, prev.pkt, buffered, streamString(stream[buffered:]))
				}
			}
		}
	}
}

func streamString(fs []flit) string {
	out := ""
	for _, f := range fs {
		out += fmt.Sprintf(" %d.%d", f.pkt, f.idx)
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
		scheme core.Scheme
	}{{"CBR", core.CBR}, {"EL", core.EL}} {
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

// TestOutputVCOwnership pins the wormhole guard on an output VC: while one
// packet's wormhole holds it, no other packet's body flit may take it, and
// a body flit never takes a free one (only its own head claims it). The
// guard is unreachable from traffic — a body flit's head always claimed the
// output VC the body is routed to — so the test builds the state by hand:
// packets A and B enter router r from two different neighbours on routes
// whose next hop at r is the same output VC; A's head has crossed r and
// owns it, and B's body flit is at the front of its input.
func TestOutputVCOwnership(t *testing.T) {
	net := engineNet(t)
	s, err := New(Config{Net: net, Table: minTable(t, net, 2), Buffers: core.Buffers{VCs: 2},
		Traffic: &bernoulliSource{n: net.N(), flits: 2}, EngineJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	// nb is the neighbour a next-hop word at router cur leads to.
	nb := func(cur int, w uint32) int { return net.Adj[cur][w>>16] }
	r, a, b, dst := -1, -1, -1, -1
search:
	for r0, adj := range net.Adj {
		for _, a0 := range adj {
			for _, b0 := range adj {
				for d0 := 0; d0 < net.Nr && a0 != b0; d0++ {
					if d0 == a0 || d0 == b0 || d0 == r0 ||
						nb(a0, s.table.Next(a0, a0, d0, 0)) != r0 || nb(b0, s.table.Next(b0, b0, d0, 0)) != r0 {
						continue // a route from a0 or b0 to d0 does not cross r0
					}
					if s.table.Next(a0, r0, d0, 1) == s.table.Next(b0, r0, d0, 1) {
						r, a, b, dst = r0, a0, b0, d0
						break search
					}
				}
			}
		}
	}
	if r < 0 {
		t.Fatal("no router where two neighbours' routes share an output VC")
	}
	packetFrom := func(src int) *packet {
		p := s.allocPacket()
		p.src, p.dst = int32(src*net.P), int32(dst*net.P) // each router's first node
		p.srcR, p.dstR, p.flits = int32(src), int32(dst), 2
		return p
	}
	pa, pb := packetFrom(a), packetFrom(b)
	// lane is the link from p's source router into r and the VC p's flits
	// ride on it, as the route table sends them.
	lane := func(p *packet) (*link, int) {
		w0 := s.table.Next(int(p.srcR), int(p.srcR), dst, 0)
		port := int(w0 >> 16)
		return &s.links[s.outLink[int(p.srcR)*s.stride+port]], int(w0&0xffff) - port*s.vcs
	}
	// send lands flit idx of p at r, as the link phase would.
	send := func(p *packet, idx uint16) {
		l, vc := lane(p)
		l.pending++
		s.doms[0].linksLive++
		s.deliver(&s.doms[0], l, vc, flit{pkt: p.ref, idx: idx, hop: 1, next: s.table.Next(int(p.srcR), r, dst, 1)})
	}
	front := func(p *packet) int32 {
		l, vc := lane(p)
		return s.inLen[int(l.recvVB)+vc]
	}
	vi := r*s.stride*s.vcs + int(s.table.Next(a, r, dst, 1)&0xffff)
	s.outOwner[vi] = int32(pa.ref) // A's head went out on vi
	send(pb, 1)
	step := func() {
		s.step()
		s.now++
		if err := s.CheckBuffers(); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if front(pb) != 1 || s.outOwner[vi] != int32(pa.ref) {
		t.Fatalf("B's body flit took output VC %d from A's wormhole (B input holds %d flits, owner %d)", vi, front(pb), s.outOwner[vi])
	}
	// A's tail passes and frees the VC; B's body must still wait.
	send(pa, 1)
	step()
	if front(pa) != 0 || s.outOwner[vi] != -1 {
		t.Fatalf("A's tail did not pass: A input holds %d flits, owner %d", front(pa), s.outOwner[vi])
	}
	step()
	if front(pb) != 1 || s.outOwner[vi] != -1 {
		t.Fatalf("B's body flit took the free output VC %d (B input holds %d flits, owner %d)", vi, front(pb), s.outOwner[vi])
	}
}
