package sim

import (
	"fmt"
	"math/bits"
)

// CheckBuffers reports the first breach, between cycles, of the bounded
// buffer invariants, for the external tests that step an engine: every input
// buffer holds between 0 and inCap flits, in wormhole order, every
// injection queue at most InjQueueCap, and every stall FIFO at most its
// lane's latency+1; the dense mirrors (the occupancy bitmask for an input
// buffer, injNext for an injection queue's front flit) agree
// with what the queues actually hold; each NIC's packet list accounts for
// exactly its injection queue, and nicBacklog counts the NICs with unmoved
// flits; the central buffers keep the checkCB invariants; and each
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
			continue
		}
		prev := s.inFront[slot]
		if prev.pkt == nil {
			return fmt.Errorf("input slot %d: %d flits but no front flit", slot, n)
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
	backlog := 0
	for v := range s.nics {
		nc := &s.nics[v]
		if nc.injLen < 0 || nc.injLen > s.injCap {
			return fmt.Errorf("node %d: injection queue holds %d flits, capacity %d", v, nc.injLen, s.injCap)
		}
		// The injection queue is the moved-but-uninjected flits of the
		// packet list, from flit injIdx of front on; src is the first
		// packet with unmoved flits.
		queued, src := 0, (*packet)(nil)
		for p := nc.front; p != nil; p = p.qnext {
			moved := p.flitsMoved
			if p == nc.front {
				if int(nc.injIdx) > moved || moved > p.flits {
					return fmt.Errorf("node %d: front packet %d at flit %d, %d of %d moved", v, p.id, nc.injIdx, moved, p.flits)
				}
				moved -= int(nc.injIdx)
			}
			queued += moved
			if src == nil && p.flitsMoved < p.flits {
				src = p
			}
			if p.qnext == nil && p != nc.last {
				return fmt.Errorf("node %d: packet list ends at packet %d, last is packet %d", v, p.id, nc.last.id)
			}
		}
		if nc.front == nil && nc.injIdx != 0 {
			return fmt.Errorf("node %d: empty packet list but front flit %d", v, nc.injIdx)
		}
		if queued != int(nc.injLen) || src != nc.src {
			return fmt.Errorf("node %d: packet list holds %d moved flits and its first unmoved packet is %p; injLen %d, src %p", v, queued, src, nc.injLen, nc.src)
		}
		if nc.src != nil {
			backlog++
		}
		want := uint32(nextNone)
		if nc.injLen > 0 {
			want = nc.front.next[0]
		}
		if s.injNext[v] != want {
			return fmt.Errorf("node %d: injNext = %#x, injection queue front wants %#x", v, s.injNext[v], want)
		}
	}
	if backlog != s.nicBacklog {
		return fmt.Errorf("nicBacklog = %d, %d NICs have unmoved flits", s.nicBacklog, backlog)
	}
	for lane := range s.stall {
		l := &s.links[lane/s.vcs]
		if n := s.stall[lane].n; n < 0 || int64(n) > l.latency+1 {
			return fmt.Errorf("lane %d: %d flits stalled, over the lane's %d pipeline slots", lane, n, l.latency+1)
		}
	}
	if err := s.checkCB(); err != nil {
		return err
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

// checkCB checks the central-buffer state: per router, the free slots plus
// the slots every queued record still holds or expects make up its central
// buffer; and
// every input's decision belongs to the packet at its front — none for a
// head before it decides (or for a packet ejecting here, which never
// decides), the bypass mark only behind a head that took it, a record only
// for the packet it queued, at the flit it expects next.
func (s *Sim) checkCB() error {
	if s.cbq == nil {
		return nil
	}
	nvr := s.stride * s.vcs
	for r, free := range s.cbFree {
		held := int32(0)
		for _, q := range s.cbq[r*nvr : (r+1)*nvr] {
			for cp := q.head; cp != nil; cp = cp.qnext {
				if cp.stored < 0 || cp.expected < 0 || cp.stored+cp.expected == 0 {
					return fmt.Errorf("router %d: CB record of packet %d holds %d flits, expects %d", r, cp.pkt.id, cp.stored, cp.expected)
				}
				held += cp.stored + cp.expected
			}
		}
		if c := s.cfg.CentralCap(); free+held != int32(c) {
			return fmt.Errorf("router %d: %d CB slots free and %d held, capacity %d", r, free, held, c)
		}
	}
	for slot, cp := range s.cbIn {
		if cp == nil {
			if f := s.inFront[slot]; s.inLen[slot] > 0 && !f.head() && f.next != nextEject {
				return fmt.Errorf("input slot %d: body flit %d of packet %d in front of an undecided input", slot, f.idx, f.pkt.id)
			}
			continue
		}
		if s.inLen[slot] == 0 {
			continue // the rest of the packet is still on the wire
		}
		f := s.inFront[slot]
		if cp == cbBypass {
			if f.head() {
				return fmt.Errorf("input slot %d: head of packet %d behind a bypass decision", slot, f.pkt.id)
			}
		} else if f.pkt != cp.pkt || int32(f.idx) != int32(cp.pkt.flits)-cp.expected {
			return fmt.Errorf("input slot %d: flit %d of packet %d in front of the CB record of packet %d expecting %d more", slot, f.idx, f.pkt.id, cp.pkt.id, cp.expected)
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

// StorageFlits returns the flit storage New allocated for the routers and
// links and the VC count it was allocated for: every input buffer's
// capacity, every elastic lane's stall FIFO (its pipeline slots), and the
// central buffers of a CBR network, read from a fresh or reset engine.
func (s *Sim) StorageFlits() (flits, vcs int) {
	for _, c := range s.inCap {
		flits += int(c)
	}
	for _, f := range s.stall {
		flits += int(f.size)
	}
	if s.cbq != nil {
		for _, free := range s.cbFree {
			flits += int(free)
		}
	}
	return flits, s.vcs
}

// Domains returns the number of spatial domains the engine steps.
func (s *Sim) Domains() int { return len(s.doms) }

// Domains returns the number of spatial domains the episode engine steps.
func (e *EpisodeEngine) Domains() int { return e.s.Domains() }
