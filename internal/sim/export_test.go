package sim

import (
	"fmt"
	"math/bits"
)

// CheckBuffers reports the first breach, between cycles, of the bounded
// buffer invariants, for the external tests that step an engine: every input
// buffer holds between 0 and inCap flits, in wormhole order, and every
// injection queue at most InjQueueCap; the dense mirrors (inNext and the
// occupancy bitmask for an input buffer's front flit, injNext for an
// injection queue's) agree with what the queues actually hold; and each
// domain's busy set marks exactly its routers with resident flits, nBusy of
// them.
func (s *Sim) CheckBuffers() error {
	for slot, n := range s.inLen {
		c, h := s.inCap[slot], s.inHead[slot]
		if n < 0 || n > c || h < 0 || (h > 0 && h >= c-1) {
			return fmt.Errorf("input slot %d: %d flits, head %d, capacity %d", slot, n, h, c)
		}
		r := slot / (s.stride * s.vcs)
		b := slot - r*s.stride*s.vcs
		if bit := s.occIn[r*s.occW+(b>>6)]>>uint(b&63)&1 == 1; bit != (n > 0) {
			return fmt.Errorf("input slot %d: %d flits but occupancy bit %v", slot, n, bit)
		}
		if n == 0 {
			if s.inNext[slot] != nextNone {
				return fmt.Errorf("input slot %d: empty but inNext = %#x", slot, s.inNext[slot])
			}
			continue
		}
		prev := s.inFront[slot]
		if prev.pkt == nil || s.inNext[slot] != prev.next {
			return fmt.Errorf("input slot %d: inNext = %#x, front flit %d wants %#x", slot, s.inNext[slot], prev.idx, prev.next)
		}
		for i := int32(1); i < n; i++ {
			f := s.inBuf[slabPos(s.inOff[slot], h, i-1, c-1)]
			ok := f.head()
			if !prev.tail() {
				ok = f.pkt == prev.pkt && f.idx == prev.idx+1
			}
			if !ok {
				return fmt.Errorf("input slot %d: flit %d of packet %d follows flit %d of packet %d", slot, f.idx, f.pkt.id, prev.idx, prev.pkt.id)
			}
			prev = f
		}
	}
	for v := range s.nics {
		nc := &s.nics[v]
		if nc.injLen < 0 || nc.injLen > s.injCap || nc.injHead < 0 || nc.injHead >= s.injCap {
			return fmt.Errorf("node %d: injection queue holds %d flits, head %d, capacity %d", v, nc.injLen, nc.injHead, s.injCap)
		}
		want := uint32(nextNone)
		if nc.injLen > 0 {
			p := s.injBuf[int32(v)*s.injCap+nc.injHead]
			if int(nc.injIdx) >= p.flits || int(nc.injIdx) >= p.flitsMoved {
				return fmt.Errorf("node %d: front flit %d of packet %d, which has %d flits, %d moved", v, nc.injIdx, p.id, p.flits, p.flitsMoved)
			}
			want = p.next[0]
		}
		if s.injNext[v] != want {
			return fmt.Errorf("node %d: injNext = %#x, injection queue front wants %#x", v, s.injNext[v], want)
		}
	}
	for di := range s.doms {
		d := &s.doms[di]
		set, busy := 0, 0
		for _, w := range d.busy {
			set += bits.OnesCount64(w)
		}
		for r := int(d.rlo); r < int(d.rhi); r++ {
			i := r - int(d.rlo)
			if bit := d.busy[i>>6]>>uint(i&63)&1 == 1; bit != (s.work[r] > 0) {
				return fmt.Errorf("router %d: %d flits resident but busy bit %v", r, s.work[r], bit)
			}
			if s.work[r] > 0 {
				busy++
			}
		}
		if d.nBusy != set || set != busy {
			return fmt.Errorf("domain %d: nBusy = %d, %d busy bits set, %d routers busy", di, d.nBusy, set, busy)
		}
	}
	return nil
}

// FullBuffers counts the input buffers and injection queues filled to
// capacity, so a test can tell that it drove the bounds.
func (s *Sim) FullBuffers() (inputs, injection int) {
	for slot, n := range s.inLen {
		if n > 0 && n == s.inCap[slot] {
			inputs++
		}
	}
	for v := range s.nics {
		if s.nics[v].injLen == s.injCap {
			injection++
		}
	}
	return inputs, injection
}
