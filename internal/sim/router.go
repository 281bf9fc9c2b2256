// Router pipeline: switch allocation, central-buffer management, injection
// and ejection. One call to stepRoutersDomain advances every active router
// of one spatial domain by one cycle; idle routers cost nothing. All state
// touched here is either owned by the router's domain (SoA slices indexed by
// the domain's router range, NIC injection queues of attached nodes, the
// outgoing links' sender side, including the domain's own arrival wheels) or
// staged per domain for the serial merge (credit and ejection wheel events,
// occupancy decrements) — see
// domain.go for the decomposition contract. The 1-domain engine (Sim.single)
// applies the "staged" effects directly, in the same order the merge would.
//
// The arbitration fast path re-derives nothing per flit: the next-hop
// decision rides in the flit (flit.next), output conflicts are one bitmask
// test against the domain's outMask scratch, and downstream readiness is one
// compare of the per-(port,vc) space word — no route-table, packet-array or
// link-struct access until a flit actually moves.

package sim

import (
	"math/bits"
	"slices"
)

// routerDelay is the router pipeline latency added to every traversal: the
// paper's 2-stage edge-buffer pipeline and the CBR bypass path both take 2
// cycles; the CBR buffered path takes 4 (§4.1, §5.1).
const (
	routerDelayDirect   = 2
	routerDelayBuffered = 4
)

// stepRoutersDomain performs ejection, central-buffer reads/writes, switch
// allocation and injection for every active router of the domain, in
// ascending router index order (matching the original full scan; the
// ascending order also makes the list append order of the preceding link
// phase irrelevant). When the active list covers a quarter or more of the
// domain's range — the saturated regime — the per-cycle sort is replaced by
// an ascending scan of the membership flags, which visits the same routers
// in the same order without the O(n log n) comparison sort.
//
//sim:hot
//sim:domain
func (s *Sim) stepRoutersDomain(d *domain) {
	if n := len(d.routerList); n*4 >= int(d.rhi-d.rlo) {
		keep := d.routerList[:0]
		for r := int(d.rlo); r < int(d.rhi); r++ {
			if !s.routerIn[r] {
				continue
			}
			s.stepRouter(d, r)
			if s.work[r] > 0 {
				keep = append(keep, int32(r))
			} else {
				s.routerIn[r] = false
			}
		}
		d.routerList = keep
		return
	}
	slices.Sort(d.routerList)
	keep := d.routerList[:0]
	for _, r := range d.routerList {
		s.stepRouter(d, int(r))
		if s.work[r] > 0 {
			keep = append(keep, r)
		} else {
			s.routerIn[r] = false
		}
	}
	d.routerList = keep
}

//sim:hot
//sim:domain
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
	// The CBR input scan keeps the flit-carrying slow path (tryAdvanceCBR):
	// its buffered path must make progress even when the output is blocked,
	// so readiness cannot gate the probe.
	if s.scheme == CentralBuffer {
		s.cbDrain(d, r)
		cbWrote := false
		if kp > 0 {
			pi := int(now % int64(kp))
			vb := (pb + pi) * s.vcs
			for off := 0; off < kp; off++ {
				for vc := 0; vc < s.vcs; vc++ {
					if s.inLen[vb+vc] == 0 {
						continue
					}
					if s.tryAdvanceCBR(d, r, s.inFront[vb+vc], &cbWrote, pi, vc) {
						break
					}
				}
				pi++
				vb += s.vcs
				if pi == kp {
					pi = 0
					vb = pb * s.vcs
				}
			}
		}
	} else if kp > 0 {
		// 2. Network inputs, arbitration fast path (EdgeBuffers/elastic):
		// iterate ports with a rotating start for fairness. The rotation
		// advances once per cycle whether or not the router does work, so it
		// is derived from the clock rather than stored (idle routers are
		// skipped entirely but must arbitrate identically). A probe reads the
		// input's next-hop word and tests it against the conflict mask and
		// the readiness word — all dense scalar arrays; the flit itself is
		// only loaded for the VC-ownership check and the move.
		pi := int(now % int64(kp))
		pbv := pb * s.vcs
		// Local views keep the probe loop free of slice-header reloads: the
		// callees mutate elements, never the headers.
		inNext, inFront := s.inNext, s.inFront
		space, outOwner := s.space, s.outOwner
		mask := d.outMask
		if occ := s.occIn; occ != nil {
			// Occupancy-bitmask walk: rotate the router's occupancy word by
			// the cycle's starting port and visit only the set bits, in
			// ascending rotated order — exactly the non-empty slots the
			// port-by-port loop below would probe, in the same order. Port
			// blocks stay contiguous under the rotation (the shift is a
			// multiple of vcs), so "one move per input port per cycle" is a
			// vcs-wide bit clear at the moved port's block.
			m := occ[r]
			nb := uint(kp * s.vcs)
			sb := uint(pi * s.vcs)
			full := ^uint64(0) >> (64 - nb)
			rm := ((m >> sb) | (m << (nb - sb))) & full
			for rm != 0 {
				ro := uint(bits.TrailingZeros64(rm))
				b := ro + sb
				if b >= nb {
					b -= nb
				}
				slot := pbv + int(b)
				nx := inNext[slot]
				if nx == nextEject {
					// Ejection: one flit per node ejection port per cycle.
					f := inFront[slot]
					eslot := s.ejSlot(f.pkt.dst)
					if s.ejUsedAt[eslot] == now {
						rm &= rm - 1
						continue
					}
					s.ejUsedAt[eslot] = now
					vc := int(b) % s.vcs
					s.popInput(d, r, pb+int(b)/s.vcs, slot, vc)
					s.ejectWithDelay(d, r, f)
					rm &= ^(((uint64(1) << uint(s.vcs)) - 1) << (ro - uint(vc)))
					continue
				}
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
				} else if owner != f.pkt.id {
					rm &= rm - 1 // body flit: not our wormhole
					continue
				}
				vc := int(b) % s.vcs
				s.popInput(d, r, pb+int(b)/s.vcs, slot, vc)
				d.forwarded++
				outPort := int(nx >> 16)
				s.sendFlit(d, r, f, outPort, int(nx&0xffff)-outPort*s.vcs, vi, routerDelayDirect)
				rm &= ^(((uint64(1) << uint(s.vcs)) - 1) << (ro - uint(vc)))
			}
		} else {
			// Wide-router fallback (stride*vcs > 64): probe every slot.
			vb := pbv + pi*s.vcs
			for off := 0; off < kp; off++ {
				for vc := 0; vc < s.vcs; vc++ {
					nx := inNext[vb+vc]
					if nx >= nextNone {
						if nx == nextNone {
							continue // empty input VC
						}
						// Ejection: one flit per node ejection port per cycle.
						f := inFront[vb+vc]
						slot := s.ejSlot(f.pkt.dst)
						if s.ejUsedAt[slot] == now {
							continue
						}
						s.ejUsedAt[slot] = now
						s.popInput(d, r, pb+pi, vb+vc, vc)
						s.ejectWithDelay(d, r, f)
						break
					}
					if mask[nx>>22]&(1<<((nx>>16)&63)) != 0 {
						continue // output port claimed this cycle
					}
					vi := pbv + int(nx&0xffff)
					if space[vi] <= 0 {
						continue // downstream not ready
					}
					f := inFront[vb+vc]
					if owner := outOwner[vi]; f.idx == 0 {
						if owner != -1 {
							continue // head flit: output VC taken
						}
					} else if owner != f.pkt.id {
						continue // body flit: not our wormhole
					}
					s.popInput(d, r, pb+pi, vb+vc, vc)
					d.forwarded++
					outPort := int(nx >> 16)
					s.sendFlit(d, r, f, outPort, int(nx&0xffff)-outPort*s.vcs, vi, routerDelayDirect)
					break
				}
				pi++
				vb += s.vcs
				if pi == kp {
					pi = 0
					vb = pbv
				}
			}
		}
	}

	// 3. Injection: each attached node may insert one flit per cycle.
	// Nodes attach contiguously (New rejects node maps), matching the
	// order of Network.RouterNodes without its allocation. Probes read the
	// dense injNext mirror; the NIC ring is only touched on a move.
	base := r * s.net.P
	for node := base; node < base+s.net.P; node++ {
		nx := s.injNext[node]
		if nx == nextNone {
			continue // empty injection queue
		}
		if nx == nextEject {
			// Same-router destination: eject directly.
			nc := &s.nics[node]
			f := nc.injQ.front()
			slot := s.ejSlot(f.pkt.dst)
			if s.ejUsedAt[slot] == now {
				continue
			}
			s.ejUsedAt[slot] = now
			s.popInj(d, nc, node)
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
		nc := &s.nics[node]
		f := nc.injQ.front()
		if owner := s.outOwner[vi]; f.idx == 0 {
			if owner != -1 {
				continue
			}
		} else if owner != f.pkt.id {
			continue
		}
		s.popInj(d, nc, node)
		outPort := int(nx >> 16)
		s.sendFlit(d, r, f, outPort, int(nx&0xffff)-outPort*s.vcs, vi, routerDelayDirect)
	}
}

// popInj removes the front flit of a NIC injection queue, keeping the dense
// injNext mirror coherent. The freed slot is the only thing that lets a NIC
// with queued packets inject again, so it wakes the NIC here.
//
//sim:hot
//sim:domain
func (s *Sim) popInj(d *domain, nc *nic, node int) {
	nc.injQ.pop()
	if nc.injQ.len() > 0 {
		s.injNext[node] = nc.injQ.front().next
	} else {
		s.injNext[node] = nextNone
	}
	if nc.srcQ.len() > 0 {
		s.nicWake(d, node)
	}
}

// tryAdvanceCBR attempts to move the head flit of input (pi, vc) of a
// central-buffer router, handling ejection and the bypass-vs-buffered
// decision (§4.1): head flits pick the 2-cycle bypass when the output VC is
// free and no CB traffic is queued for it; otherwise the whole packet
// reserves CB space atomically (§4.3) and streams through the buffered
// 4-cycle path. Returns true if the flit was consumed.
//
//sim:hot
//sim:domain
func (s *Sim) tryAdvanceCBR(d *domain, r int, f flit, cbWrote *bool, pi, vc int) bool {
	// Ejection.
	if f.next == nextEject {
		slot := s.ejSlot(f.pkt.dst)
		if s.ejUsedAt[slot] == s.now {
			return false
		}
		s.ejUsedAt[slot] = s.now
		pv := r*s.stride + pi
		s.popInput(d, r, pv, pv*s.vcs+vc, vc)
		s.ejectWithDelay(d, r, f)
		return true
	}
	p := f.pkt
	pb := r * s.stride
	outPort := int(f.next >> 16)
	outVC := int(f.next&0xffff) - outPort*s.vcs
	vi := pb*s.vcs + int(f.next&0xffff)
	q := &s.cbq[vi]
	if f.head() && p.cbState[f.hop] == 0 {
		// Decide once per router visit.
		if q.empty() && s.outOwner[vi] == -1 &&
			d.outMask[outPort>>6]&(1<<(outPort&63)) == 0 && s.space[vi] > 0 {
			p.cbState[f.hop] = 1 // bypass
		} else if s.cbFree[r] >= int32(p.flits) {
			s.cbFree[r] -= int32(p.flits)
			p.cbState[f.hop] = 2 // buffered
			cp := s.allocCBPacket(d)
			cp.pkt, cp.outPort, cp.outVC, cp.expected = p, outPort, outVC, p.flits
			q.push(cp)
		} else {
			return false // wait for CB space or the output
		}
	}
	if p.cbState[f.hop] == 0 {
		// Body flit ahead of its head's decision: cannot happen in FIFO
		// order; treat as a stall defensively.
		return false
	}
	if p.cbState[f.hop] == 2 {
		// CB write port: one flit per router per cycle.
		if *cbWrote {
			return false
		}
		for i := 0; i < q.len(); i++ {
			cp := q.at(i)
			if cp.pkt == p {
				s.popInput(d, r, pb+pi, (pb+pi)*s.vcs+vc, vc)
				cp.stored.push(f)
				cp.expected--
				*cbWrote = true
				return true
			}
		}
		return false
	}
	// Bypass path: behaves like a direct wormhole traversal.
	if d.outMask[outPort>>6]&(1<<(outPort&63)) != 0 {
		return false
	}
	if !s.outputReady(p, vi, f.head()) {
		return false
	}
	s.popInput(d, r, pb+pi, (pb+pi)*s.vcs+vc, vc)
	d.bypass++
	d.forwarded++
	s.sendFlit(d, r, f, outPort, outVC, vi, routerDelayDirect)
	return true
}

// allocCBPacket takes a CB packet record from the domain's freelist
// (cbPackets live and die at one router, so the pools are domain-closed).
//
//sim:hot
//sim:domain
func (s *Sim) allocCBPacket(d *domain) *cbPacket {
	if n := len(d.cbPool); n > 0 {
		cp := d.cbPool[n-1]
		d.cbPool[n-1] = nil
		d.cbPool = d.cbPool[:n-1]
		return cp
	}
	//detlint:allow hotalloc freelist miss only; steady state recycles via freeCBPacket (pinned by TestSteadyStateZeroAllocs)
	return &cbPacket{}
}

// freeCBPacket recycles a drained CB packet record, keeping its ring's
// capacity.
//
//sim:hot
//sim:domain
func (s *Sim) freeCBPacket(d *domain, cp *cbPacket) {
	cp.pkt = nil
	//detlint:allow hotalloc amortised freelist growth; capacity is retained across cycles
	d.cbPool = append(d.cbPool, cp)
}

// cbDrain moves at most one flit from the central buffer to an output (the
// CB's single read port), scanning (port, vc) queues in a deterministic
// rotating order.
//
//sim:hot
//sim:domain
func (s *Sim) cbDrain(d *domain, r int) {
	total := int(s.kp[r]) * s.vcs
	start := int(s.now) % maxi(total, 1)
	pb := r * s.stride
	vb := pb * s.vcs
	for off := 0; off < total; off++ {
		slot := (start + off) % total
		outPort, outVC := slot/s.vcs, slot%s.vcs
		q := &s.cbq[vb+slot]
		if q.empty() {
			continue
		}
		cp := q.front()
		if cp.stored.empty() {
			continue
		}
		if d.outMask[outPort>>6]&(1<<(outPort&63)) != 0 {
			continue
		}
		f := cp.stored.front()
		if !s.outputReady(cp.pkt, vb+slot, f.head()) {
			continue
		}
		cp.stored.pop()
		s.cbFree[r]++
		d.buffered++
		d.forwarded++
		s.sendFlit(d, r, f, outPort, outVC, vb+slot, routerDelayBuffered)
		if f.tail() {
			q.pop()
			s.freeCBPacket(d, cp)
		}
		return // single read port
	}
}

//sim:hot
func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// outputReady checks VC ownership and downstream readiness for one flit at
// per-VC output index vi. space already encodes the scheme (credits for
// EdgeBuffers, link pipeline slots for elastic modes), so the check is two
// contiguous loads and two compares.
//
//sim:hot
//sim:domain
func (s *Sim) outputReady(p *packet, vi int, head bool) bool {
	owner := s.outOwner[vi]
	if head {
		if owner != -1 {
			return false
		}
	} else if owner != p.id {
		return false
	}
	return s.space[vi] > 0
}

// sendFlit commits a flit to an output: ownership transitions, readiness
// consumption, link occupancy, and the traversal itself — the flit is
// scheduled on this domain's arrival wheel toward the link's receiving
// domain, for the cycle it lands. The flit leaves the router, so its work
// counter drops. The link-side writes are safe in the parallel phase
// because a directed link has exactly one sending router, hence exactly one
// writing domain; the receiver only touches these fields in the
// (barrier-separated) link phase.
//
//sim:hot
//sim:domain
func (s *Sim) sendFlit(d *domain, r int, f flit, outPort, outVC, vi int, delay int64) {
	p := f.pkt
	if f.head() {
		s.outOwner[vi] = p.id
	}
	if f.tail() {
		s.outOwner[vi] = -1
	}
	//detlint:allow sharedread sender-exclusive decrement; the receiver's slot returns happen in the barrier-separated link phase (elastic) or the serial credit phase (EdgeBuffers)
	s.space[vi]--
	if s.space[vi] < 0 {
		panic("sim: negative output readiness")
	}
	d.outMask[outPort>>6] |= 1 << (outPort & 63)
	lid := s.outLink[r*s.stride+outPort]
	l := &s.links[lid]
	f.hop++
	f.next = p.next[f.hop]
	// A flit never lands before the one sent ahead of it on its lane: the
	// lane is a FIFO, so a CBR bypass flit (2 cycles) queues behind a
	// buffered one (4 cycles) sent earlier.
	lane := int(lid)*s.vcs + outVC
	at := max(s.now+delay+l.latency, s.laneLast[lane])
	s.laneLast[lane] = at
	//detlint:allow sharedread sender-exclusive: d.out is this domain's own wheel set, its receivers take from it only in the barrier-separated link phase
	d.out[s.domOf[l.to]].schedule(s.now, at, arrival{f: f, link: lid, vc: int32(outVC)})
	//detlint:allow sharedread sender-exclusive: one sending router per directed link, receiver reads only after the phase barrier
	l.pending++
	if l.pending == 1 {
		d.linksLive++
	}
	//detlint:allow sharedread sender-exclusive increment; the receiver's decrements are staged in domain.occDecs and merged serially
	l.occupancy++
	s.work[r]--
}

// popInput removes the head flit from input slot vi (= pv*vcs+vc, where pv =
// r*stride+pi is the flat port index). Callers pass the indices they already
// hold from the probe, so the pop recomputes nothing. The upstream credit
// return and the UGAL occupancy decrement both target state shared with
// other domains (the credit wheel; the sender-side occupancy counter), so
// they are staged per domain and replayed at the merge — except on the
// 1-domain engine, which applies them directly in the identical order.
//
//sim:hot
//sim:domain
func (s *Sim) popInput(d *domain, r, pv, vi, vc int) {
	q := &s.inQ[vi]
	q.pop()
	n := s.inLen[vi] - 1
	s.inLen[vi] = n
	if n > 0 {
		nf := q.front()
		s.inFront[vi] = nf
		s.inNext[vi] = nf.next
	} else {
		s.inNext[vi] = nextNone
		if s.occIn != nil {
			//detlint:allow sharedread owner-exclusive: router r belongs to this domain in the router phase, and the word occIn[r] is only ever written by r's owner (link-phase sets also target the receiving domain's own routers)
			s.occIn[r] &^= 1 << uint(vi-r*s.stride*s.vcs)
		}
	}
	lid := s.inLink[pv]
	if s.single {
		//detlint:allow sharedread 1-domain engine only: no other domain exists to race with
		s.links[lid].occupancy--
		if s.scheme == EdgeBuffers {
			l := &s.links[lid]
			s.creditWheel.schedule(s.now, s.now+l.latency, creditEvent{
				router: int32(l.from),
				port:   s.revPort[pv],
				vc:     int32(vc),
			})
		}
		return
	}
	//detlint:allow hotalloc amortised staging growth; capacity is retained across cycles
	d.occDecs = append(d.occDecs, lid)
	if s.scheme == EdgeBuffers {
		l := &s.links[lid]
		//detlint:allow hotalloc amortised staging growth; capacity is retained across cycles
		d.credits = append(d.credits, stagedCredit{
			at: s.now + l.latency,
			ev: creditEvent{
				router: int32(l.from),
				port:   s.revPort[pv],
				vc:     int32(vc),
			},
		})
	}
}

// portToward returns the output port index at router r leading to neighbour
// nxt, panicking if the link does not exist. Route-table ports make this a
// setup-time (enqueue) concern; the per-flit hot path reads flit.next.
//
//sim:hot
func (s *Sim) portToward(r, nxt int) int {
	pos, ok := s.portTowardOK(r, nxt)
	if !ok {
		panic("sim: route uses a missing link")
	}
	return pos
}

// portTowardOK binary-searches r's sorted adjacency for nxt.
//
//sim:hot
func (s *Sim) portTowardOK(r, nxt int) (int, bool) {
	adj := s.net.Adj[r]
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < nxt {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(adj) || adj[lo] != nxt {
		return 0, false
	}
	return lo, true
}

// ejSlot identifies a node's ejection port (one per node).
//
//sim:hot
func (s *Sim) ejSlot(node int) int { return node }

// ejectWithDelay consumes a flit at its destination, accounting for the
// final router traversal. The wheel insertion is staged: ejection order is
// observable (latency sample order, OnDelivered reply sequencing), and the
// ascending-domain merge reproduces the serial engine's ascending-router
// order exactly. The 1-domain engine schedules directly — its visit order
// is the staged replay order.
//
//sim:hot
//sim:domain
func (s *Sim) ejectWithDelay(d *domain, r int, f flit) {
	if s.single {
		s.ejectWheel.schedule(s.now, s.now+routerDelayDirect, f)
	} else {
		//detlint:allow hotalloc amortised staging growth; capacity is retained across cycles
		d.ejects = append(d.ejects, f)
	}
	s.work[r]--
}

// flushEjections completes delayed ejections whose router traversal is done.
//
//sim:hot
func (s *Sim) flushEjections() {
	evs := s.ejectWheel.take(s.now)
	for _, f := range evs {
		s.eject(f)
	}
	clear(evs)
}

// flushAllEjections drains every pending ejection after the main loop, in
// arrival order (the wheel horizon covers the maximum residual delay).
func (s *Sim) flushAllEjections(stop int64) {
	horizon := int64(len(s.ejectWheel.buckets))
	for t := stop; t <= stop+horizon; t++ {
		evs := s.ejectWheel.take(t)
		for _, f := range evs {
			s.eject(f)
		}
		clear(evs)
	}
}
