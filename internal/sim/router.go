// Router pipeline: switch allocation, central-buffer management, injection
// and ejection. One call to stepRoutersDomain advances every busy router
// of one spatial domain by one cycle; idle routers cost nothing. All state
// written here is owned by the router's domain: SoA slices indexed by the
// domain's router range, NIC injection queues of attached nodes, the
// outgoing links' sender side including the domain's own arrival wheels,
// and the domain's credit and ejection wheels — see domain.go for the
// decomposition contract.
//
// The arbitration fast path re-derives nothing per flit: the next-hop
// decision, computed from the route table as the flit is sent to the
// router, rides in the flit (flit.next), output conflicts are one bitmask
// test against the domain's outMask scratch, downstream readiness is one
// compare of the per-(port,vc) space word, and VC ownership compares the
// flit's packet index with the outOwner word — no route-table, packet or
// link-struct access until a flit actually moves.

package sim

import (
	"math/bits"

	"repro/internal/core"
)

// routerDelay is the router pipeline latency added to every traversal: the
// paper's 2-stage edge-buffer pipeline and the CBR bypass path both take 2
// cycles; the CBR buffered path takes 4 (§4.1, §5.1).
const (
	routerDelayDirect   = 2
	routerDelayBuffered = 4
)

// stepRoutersDomain performs ejection, central-buffer reads/writes, switch
// allocation and injection for every busy router of the domain, in
// ascending router index order (matching the original full scan; the
// ascending order also makes the wake order of the preceding link and
// injection phases irrelevant). It walks the busy bitset a word at a time
// and clears a router's bit once its last flit has left. No router gains a
// flit in this phase, so a word's snapshot sees every router due a visit.
func (s *Sim) stepRoutersDomain(d *domain) {
	for w, m := range d.busy {
		for ; m != 0; m &= m - 1 {
			i := w<<6 + bits.TrailingZeros64(m)
			r := int(d.rlo) + i
			s.stepRouter(d, r)
			if s.work[r] == 0 {
				d.busy[w] &^= 1 << uint(i&63)
				d.nBusy--
			}
		}
	}
}

func (s *Sim) stepRouter(d *domain, r int) {
	now := s.now
	kp := int(s.kp[r])
	pb := r * s.stride

	// Reset the output-conflict scratch: bit p of outMask[p/64] will mean
	// "output port p claimed this cycle". Radix is capped at 255, so this
	// clears at most four words ((kp-1)>>6 is -1 for a port-less router).
	for i := 0; i <= (kp-1)>>6; i++ {
		d.outMask[i] = 0
	}

	// 1. Central-buffer read port: drain at most one flit from the CB.
	cbr := s.scheme == core.CBR
	cbWrote := false
	if cbr {
		s.cbDrain(d, r)
	}

	// 2. Network inputs: visit the non-empty input VCs port by port from a
	// rotating start port, for fairness, and move at most one flit per
	// input port. The rotation advances once per cycle whether or not the
	// router does work, so it is derived from the clock rather than stored
	// (idle routers are skipped entirely but must arbitrate identically).
	// The walk reads the router's occupancy words as one rotated stream of
	// slots sb, sb+1, ..., nb-1, 0, ..., sb-1, 64 at a time, and probes
	// only its set bits: exactly the non-empty slots in rotated port-by-
	// port order. Port blocks stay contiguous in the stream (sb is a
	// multiple of vcs), so "one move per port" clears the rest of the
	// moved port's block, carrying into the next chunk (skip) when the
	// block straddles it.
	//
	// A probe on the fast path (edge buffers/elastic) reads the front flit's
	// next-hop word and tests it against the conflict mask and the
	// readiness word — dense scalar arrays; the rest of the flit is only
	// read for the VC-ownership check and the move, and its packet only
	// for an ejection or the move. The CBR probe keeps
	// the flit-carrying slow path (tryAdvanceCBR): its buffered path must
	// make progress even when the output is blocked, so readiness cannot
	// gate it.
	vcs := s.vcs
	pbv := pb * vcs
	nb := kp * vcs
	sb := int(now%int64(max(kp, 1))) * vcs
	// Local views keep the probe loop free of slice-header reloads: the
	// callees mutate elements, never the headers.
	occ := s.occIn[r*s.occW : (r+1)*s.occW]
	inFront, pkts := s.inFront, s.pkts
	space, outOwner := s.space, s.outOwner
	mask := d.outMask
	skip := 0
	for off := 0; off < nb; off += 64 {
		// Stream bits [off, off+64) start at slot p: the linear bits from
		// p, then, past nb, those from slot 0 (bits of slots past nb are
		// never set). Shifts by 64 or more give 0.
		p := sb + off
		if p >= nb {
			p -= nb
		}
		w, sh := p>>6, uint(p&63)
		rm := occ[w] >> sh
		if sh != 0 && w+1 < len(occ) {
			rm |= occ[w+1] << (64 - sh)
		}
		if n := nb - p; n < 64 {
			rm |= occ[0] << uint(n)
		}
		rm &= 1<<uint(nb-off) - 1
		rm &^= 1<<uint(skip) - 1
		skip = 0
		for rm != 0 {
			ro := bits.TrailingZeros64(rm)
			b := p + ro
			if b >= nb {
				b -= nb
			}
			slot := pbv + b
			var vc int
			if cbr {
				vc = b % vcs
				if !s.tryAdvanceCBR(d, r, inFront[slot], &cbWrote, b/vcs, vc) {
					rm &= rm - 1
					continue
				}
			} else if nx := inFront[slot].next; nx == nextEject {
				// Ejection: one flit per node ejection port per cycle.
				f := inFront[slot]
				dst := pkts[f.pkt].dst
				if s.ejUsedAt[dst] == now {
					rm &= rm - 1
					continue
				}
				s.ejUsedAt[dst] = now
				vc = b % vcs
				s.popInput(d, r, pb+b/vcs, slot, vc)
				s.ejectWithDelay(d, r, f)
			} else {
				if mask[nx>>22]&(1<<((nx>>16)&63)) != 0 {
					rm &= rm - 1 // output port claimed this cycle
					continue
				}
				vi := pbv + int(nx&0xffff)
				if space[vi] <= 0 {
					rm &= rm - 1 // downstream not ready
					continue
				}
				f := inFront[slot]
				if owner := outOwner[vi]; f.idx == 0 {
					if owner != -1 {
						rm &= rm - 1 // head flit: output VC taken
						continue
					}
				} else if owner != int32(f.pkt) {
					rm &= rm - 1 // body flit: not our wormhole
					continue
				}
				vc = b % vcs
				s.popInput(d, r, pb+b/vcs, slot, vc)
				d.forwarded++
				outPort := int(nx >> 16)
				s.sendFlit(d, r, f, outPort, int(nx&0xffff)-outPort*vcs, vi, routerDelayDirect)
			}
			// The port moved a flit: skip the rest of its block.
			end := ro - vc + vcs
			rm &^= 1<<uint(end) - 1
			skip = end - 64
		}
		skip = max(skip, 0)
	}

	// 3. Injection: each attached node may insert one flit per cycle.
	// Nodes attach contiguously (New rejects node maps): router r serves
	// nodes r·P to r·P+P-1. Probes read the
	// dense injNext mirror; the NIC is only touched on a move.
	base := r * s.net.P
	for node := base; node < base+s.net.P; node++ {
		nx := s.injNext[node]
		if nx == nextNone {
			continue // empty injection queue
		}
		if nx == nextEject {
			// Same-router destination: eject directly.
			dst := s.nics[node].front.dst
			if s.ejUsedAt[dst] == now {
				continue
			}
			s.ejUsedAt[dst] = now
			f := s.injFront(node)
			s.popInj(d, node, f)
			s.ejectWithDelay(d, r, f)
			continue
		}
		if d.outMask[nx>>22]&(1<<((nx>>16)&63)) != 0 {
			continue
		}
		vi := pb*s.vcs + int(nx&0xffff)
		if s.space[vi] <= 0 {
			continue
		}
		f := s.injFront(node)
		if owner := s.outOwner[vi]; f.idx == 0 {
			if owner != -1 {
				continue
			}
		} else if owner != int32(f.pkt) {
			continue
		}
		s.popInj(d, node, f)
		outPort := int(nx >> 16)
		s.sendFlit(d, r, f, outPort, int(nx&0xffff)-outPort*s.vcs, vi, routerDelayDirect)
	}
}

// injFront returns the front flit of a non-empty NIC injection queue.
func (s *Sim) injFront(node int) flit {
	nc := &s.nics[node]
	return flit{pkt: nc.front.ref, idx: nc.injIdx, next: s.injNext[node]}
}

// popInj removes the front flit f of a NIC injection queue, keeping the
// front packet, its flit index and the dense injNext word coherent. A tail
// takes its packet off the NIC's list here, before it can eject. The freed
// slot is the only thing that lets a NIC with unmoved flits inject again,
// so it wakes the NIC here.
func (s *Sim) popInj(d *domain, node int, f flit) {
	nc := &s.nics[node]
	nc.injLen--
	tail := f.tail(nc.front)
	if tail {
		nc.front, nc.injIdx = nc.front.qnext, 0
	} else {
		nc.injIdx++
	}
	if nc.injLen == 0 {
		s.injNext[node] = nextNone
	} else if tail {
		// The next packet's head is now in front; the flits behind a
		// non-tail front share its next-hop word.
		s.injNext[node] = s.nextWord(nc.front, int(nc.front.srcR), 0)
	}
	if nc.src != nil {
		s.nicWake(d, node)
	}
}

// tryAdvanceCBR attempts to move the head flit of input (pi, vc) of a
// central-buffer router, handling ejection and the bypass-vs-buffered
// decision (§4.1): head flits pick the 2-cycle bypass when the output VC is
// free and no CB traffic is queued for it; otherwise the whole packet
// reserves CB space atomically (§4.3) and streams through the buffered
// 4-cycle path. Returns true if the flit was consumed.
func (s *Sim) tryAdvanceCBR(d *domain, r int, f flit, cbWrote *bool, pi, vc int) bool {
	p := s.pkts[f.pkt]
	// Ejection.
	if f.next == nextEject {
		if s.ejUsedAt[p.dst] == s.now {
			return false
		}
		s.ejUsedAt[p.dst] = s.now
		pv := r*s.stride + pi
		s.popInput(d, r, pv, pv*s.vcs+vc, vc)
		s.ejectWithDelay(d, r, f)
		return true
	}
	pb := r * s.stride
	pv := pb + pi
	in := pv*s.vcs + vc
	outPort := int(f.next >> 16)
	vi := pb*s.vcs + int(f.next&0xffff)
	cp := s.cbIn[in]
	if cp == nil {
		// An undecided input has a head in front: it decides once per
		// router visit.
		q := &s.cbq[vi]
		if q.head == nil && s.outOwner[vi] == -1 &&
			d.outMask[outPort>>6]&(1<<(outPort&63)) == 0 && s.space[vi] > 0 {
			cp = cbBypass
		} else if s.cbFree[r] >= p.flits {
			s.cbFree[r] -= p.flits
			cp = s.allocCBPacket(d)
			cp.pkt, cp.qnext, cp.hop = f.pkt, nil, f.hop
			cp.stored, cp.expected = 0, p.flits
			if q.head == nil {
				q.head = cp
			} else {
				q.tail.qnext = cp
			}
			q.tail = cp
		} else {
			return false // wait for CB space or the output
		}
		s.cbIn[in] = cp
	}
	if cp == cbBypass {
		// Bypass path: behaves like a direct wormhole traversal.
		if d.outMask[outPort>>6]&(1<<(outPort&63)) != 0 || !s.outputReady(f.pkt, vi, f.head()) {
			return false
		}
	} else if *cbWrote {
		return false // CB write port: one flit per router per cycle
	}
	s.popInput(d, r, pv, in, vc)
	if f.tail(p) {
		s.cbIn[in] = nil // the next packet's head decides afresh
	}
	if cp != cbBypass {
		cp.stored++
		cp.expected--
		*cbWrote = true
		return true
	}
	d.bypass++
	d.forwarded++
	s.sendFlit(d, r, f, outPort, int(f.next&0xffff)-outPort*s.vcs, vi, routerDelayDirect)
	return true
}

// allocCBPacket takes a CB packet record from the domain's freelist
// (cbPackets live and die at one router, so the pools are domain-closed).
func (s *Sim) allocCBPacket(d *domain) *cbPacket {
	if n := len(d.cbPool); n > 0 {
		cp := d.cbPool[n-1]
		d.cbPool[n-1] = nil
		d.cbPool = d.cbPool[:n-1]
		return cp
	}
	// A freelist miss: once warm, records recycle through freeCBPacket.
	return &cbPacket{}
}

// freeCBPacket recycles a drained CB packet record.
func (s *Sim) freeCBPacket(d *domain, cp *cbPacket) {
	d.cbPool = append(d.cbPool, cp)
}

// cbDrain moves at most one flit from the central buffer to an output (the
// CB's single read port), scanning (port, vc) queues in a deterministic
// rotating order.
func (s *Sim) cbDrain(d *domain, r int) {
	total := int(s.kp[r]) * s.vcs
	start := int(s.now) % max(total, 1)
	pb := r * s.stride
	vb := pb * s.vcs
	for off := 0; off < total; off++ {
		slot := (start + off) % total
		q := &s.cbq[vb+slot]
		cp := q.head
		if cp == nil || cp.stored == 0 {
			continue
		}
		outPort, outVC := slot/s.vcs, slot%s.vcs
		if d.outMask[outPort>>6]&(1<<(outPort&63)) != 0 {
			continue
		}
		p := s.pkts[cp.pkt]
		f := flit{pkt: cp.pkt, idx: uint16(p.flits - cp.expected - cp.stored), hop: cp.hop}
		if !s.outputReady(cp.pkt, vb+slot, f.head()) {
			continue
		}
		cp.stored--
		s.cbFree[r]++
		d.buffered++
		d.forwarded++
		s.sendFlit(d, r, f, outPort, outVC, vb+slot, routerDelayBuffered)
		if f.tail(p) {
			q.head = cp.qnext
			s.freeCBPacket(d, cp)
		}
		return // single read port
	}
}

// outputReady checks VC ownership and downstream readiness for one flit of
// packet pkt (its Sim.pkts index) at per-VC output index vi. space already
// encodes the scheme (credits for edge buffers, link pipeline slots for
// elastic modes), so the check is two contiguous loads and two compares.
func (s *Sim) outputReady(pkt uint32, vi int, head bool) bool {
	owner := s.outOwner[vi]
	if head {
		if owner != -1 {
			return false
		}
	} else if owner != int32(pkt) {
		return false
	}
	return s.space[vi] > 0
}

// sendFlit commits a flit to an output: ownership transitions, readiness
// consumption, and the traversal itself — the flit is
// scheduled on this domain's arrival wheel toward the link's receiving
// domain, for the cycle it lands. The flit leaves the router, so its work
// counter drops. The link-side writes are safe in the parallel phase
// because a directed link has exactly one sending router, hence exactly one
// writing domain; the receiver only touches these fields in the
// (barrier-separated) link phase.
func (s *Sim) sendFlit(d *domain, r int, f flit, outPort, outVC, vi int, delay int64) {
	p := s.pkts[f.pkt]
	if f.head() {
		s.outOwner[vi] = int32(f.pkt)
	}
	if f.tail(p) {
		s.outOwner[vi] = -1
	}
	// Only the sender decrements; the receiver returns slots in the link
	// phase (elastic) or the serial credit phase (edge buffers), both behind
	// the phase barrier.
	s.space[vi]--
	if s.space[vi] < 0 {
		panic("sim: negative output readiness")
	}
	d.outMask[outPort>>6] |= 1 << (outPort & 63)
	lid := s.outLink[r*s.stride+outPort]
	l := &s.links[lid]
	f.hop++
	f.next = s.nextWord(p, l.to, int(f.hop))
	// A flit never lands before the one sent ahead of it on its lane: the
	// lane is a FIFO, so a CBR bypass flit (2 cycles) queues behind a
	// buffered one (4 cycles) sent earlier.
	lane := int(lid)*s.vcs + outVC
	at := max(s.now+delay+l.latency, s.laneLast[lane])
	s.laneLast[lane] = at
	// d.out is this domain's own wheel set; its receivers take from it only
	// in the link phase, behind the phase barrier. One router sends on each
	// directed link, and its receiver reads pending only after the barrier.
	d.out[s.domOf[l.to]].schedule(s.now, at, arrival{f: f, link: lid, vc: int32(outVC)})
	l.pending++
	if l.pending == 1 {
		d.linksLive++
	}
	s.work[r]--
}

// popInput removes the head flit from input slot vi (= pv*vcs+vc, where pv =
// r*stride+pi is the flat port index). Callers pass the indices they already
// hold from the probe, so the pop recomputes nothing. Under edge buffers the
// freed slot returns a credit upstream through the domain's credit wheel.
func (s *Sim) popInput(d *domain, r, pv, vi, vc int) {
	n := s.inLen[vi] - 1
	s.inLen[vi] = n
	if n > 0 {
		// The slab's first flit moves up to the front.
		h := s.inHead[vi]
		nf := s.inBuf[s.inOff[vi]+h]
		if h++; h == s.inCap[vi]-1 {
			h = 0
		}
		s.inHead[vi] = h
		s.inFront[vi] = nf
	} else {
		b := vi - r*s.stride*s.vcs
		// Router r's occupancy words are written only by r's own domain.
		s.occIn[r*s.occW+(b>>6)] &^= 1 << uint(b&63)
	}
	if s.scheme.EdgeBuffers() {
		l := &s.links[s.inLink[pv]]
		d.credit.schedule(s.now, s.now+l.latency, creditEvent{
			router: int32(l.from),
			port:   s.revPort[pv],
			vc:     int32(vc),
		})
	}
}

// ejectWithDelay consumes a flit at its destination, accounting for the
// final router traversal on the domain's ejection wheel.
func (s *Sim) ejectWithDelay(d *domain, r int, f flit) {
	d.ejection.schedule(s.now, s.now+routerDelayDirect, f)
	s.work[r]--
}

// flushEjections completes the delayed ejections due at cycle t, taking the
// domains' wheels in ascending domain order: the 1-domain engine's
// ascending-router order (see domain.go).
func (s *Sim) flushEjections(t int64) {
	for di := range s.doms {
		for _, f := range s.doms[di].ejection.take(t) {
			s.eject(f)
		}
	}
}

// flushAllEjections drains every pending ejection after the main loop, in
// arrival order (the wheel horizon covers the maximum residual delay).
func (s *Sim) flushAllEjections(stop int64) {
	horizon := int64(len(s.doms[0].ejection.buckets))
	for t := stop; t <= stop+horizon; t++ {
		s.flushEjections(t)
	}
}
