// Deterministic domain-parallel stepping. The routers are partitioned into
// contiguous index ranges ("domains"); each cycle the link-delivery phase
// and the router phase run once per domain — on a pool of worker goroutines
// with a per-cycle spin barrier when EngineJobs > 1, inline in ascending
// domain order otherwise. Everything a domain writes is either exclusively
// owned by it:
//
//   - SoA router state of routers in [rlo, rhi), the NIC injection queues of
//     their attached nodes, their ready-list marks, and the per-node
//     ejection budget of those nodes (a node ejects only at its own router);
//   - the receiver side of links into the domain during the link phase: the
//     arrival wheels out[d] of every sending domain (take), the lanes' stall
//     FIFOs and the domain's stalled list, pending, and the sender's space
//     readiness words;
//   - the sender side of links out of the domain during the router phase:
//     its own arrival wheels (schedule), the lanes' last-arrival words,
//     pending, space decrements, occupancy increments — a directed link has
//     exactly one sending router, and the phase barrier separates
//     sender-phase writes from receiver-phase writes;
//
// or staged in per-domain buffers (credit-wheel events, delayed ejections,
// occupancy decrements, counter deltas) and replayed by mergeDomains on the
// main goroutine in ascending domain order.
// Domains are contiguous ascending router ranges and each domain appends its
// staged events in its own ascending-router visit order, so the ascending-
// domain replay reproduces the serial engine's ascending-router-index event
// order exactly — which is why results are byte-identical at every domain
// count (pinned by TestDomainParallelIdentity and the golden fixtures). The
// serial engine is the 1-domain instance of the same phases with one fork:
// Sim.single applies the staged effects directly, in the order the merge
// would replay them.

package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// stagedCredit is a credit-wheel event recorded by a domain during the
// router phase and replayed into the shared wheel at merge time.
type stagedCredit struct {
	at int64
	ev creditEvent
}

// domain is one contiguous router-index range stepped as a unit.
type domain struct {
	di       int32 // own index in Sim.doms
	rlo, rhi int32 // router range [rlo, rhi)
	// busy has bit r-rlo set while router r holds flits (work[r] > 0), and
	// nBusy counts the set bits. It is per domain because domain bounds are
	// not 64-aligned: no word is shared, so it needs no synchronisation.
	busy  []uint64
	nBusy int
	// out[rd] is the arrival wheel of flits sent by this domain's routers
	// onto links into domain rd: scheduled here in the router phase, taken
	// by rd in its link phase, with the phase barrier between the two.
	out []wheel[arrival]
	// stalled lists the lanes into this domain ([link*vcs+vc]) whose stall
	// FIFO is non-empty, retried at the start of every link phase (elastic
	// schemes only).
	stalled []int32
	// linksLive is this domain's share of the links carrying flits: +1 when
	// one of its routers puts a flit on an idle link, -1 when its link phase
	// takes the last flit off one. The sum over domains is the active-link
	// count.
	linksLive int
	// ready lists the domain's NICs due an injection visit (Sim.nicReady).
	ready []int32
	// outMask is the per-cycle output-conflict bitmask scratch: while
	// stepRouter visits a router, bit p of outMask[p/64] means output port p
	// was claimed this cycle. One router is stepped at a time per domain, so
	// a single stride-wide mask per domain replaces the epoch-marked
	// outUsedAt/inUsedAt arrays (and their per-probe int64 loads).
	outMask []uint64
	// cbPool is the domain-local central-buffer freelist (a cbPacket lives
	// and dies at one router, so pools never cross domains).
	cbPool []*cbPacket
	// Staging of effects that target shared engine state — appended during
	// the parallel phases, replayed serially by mergeDomains. The 1-domain
	// engine bypasses these (Sim.single) and applies effects directly.
	credits []stagedCredit // credit-wheel schedules (upstream may be foreign)
	ejects  []flit         // delayed ejections (order observable)
	occDecs []int32        // link occupancy decrements (sender may be foreign)
	// Counter deltas folded into the Sim totals at merge.
	forwarded int64
	bypass    int64
	buffered  int64
	// pad keeps adjacent domains' hot fields on distinct cache lines.
	_ [64]byte
}

// normalizeJobs clamps a Config.EngineJobs value to a valid domain count.
func normalizeJobs(jobs, nr int) int {
	if jobs > nr {
		jobs = nr
	}
	if jobs < 1 {
		jobs = 1
	}
	return jobs
}

// buildDomains splits the routers into nd contiguous ranges, sizes the
// ownership lookups and gives every (sending, receiving) domain pair an
// arrival wheel of the given horizon. Called once from New; the domains'
// mutable state gets its initial values from domain.reset.
func (s *Sim) buildDomains(nd int, horizon int64) {
	nr := s.net.Nr
	s.doms = make([]domain, nd)
	s.domOf = make([]int32, nr)
	maskW := (s.stride + 63) / 64
	if maskW < 1 {
		maskW = 1
	}
	for di := 0; di < nd; di++ {
		lo, hi := di*nr/nd, (di+1)*nr/nd
		d := &s.doms[di]
		d.di = int32(di)
		d.rlo, d.rhi = int32(lo), int32(hi)
		d.outMask = make([]uint64, maskW)
		d.busy = make([]uint64, (hi-lo+63)/64)
		d.out = make([]wheel[arrival], nd)
		for rd := range d.out {
			d.out[rd] = *newWheel[arrival](horizon)
		}
		for r := lo; r < hi; r++ {
			s.domOf[r] = int32(di)
		}
	}
	s.single = nd == 1
	if nd > 1 {
		s.par = &parRunner{workers: make([]workerSlot, nd-1)}
	}
}

// arrivalHorizon sizes the arrival wheels so no flit ever reaches the
// overflow list: a send lands at most the buffered router delay plus the
// longest wire after now, and the per-lane FIFO rule only ever delays it to
// an earlier send's landing cycle.
func arrivalHorizon(maxLat int64) int64 { return maxLat + routerDelayBuffered + 1 }

// reset empties the domain's busy set, lists, arrival wheels and staging
// buffers (keeping their capacity); see Sim.reset. The central-buffer
// freelist survives.
func (d *domain) reset() {
	clear(d.busy)
	d.nBusy = 0
	for rd := range d.out {
		d.out[rd].reset()
	}
	d.stalled = d.stalled[:0]
	d.linksLive = 0
	d.ready = d.ready[:0]
	clear(d.outMask)
	d.credits = d.credits[:0]
	clear(d.ejects) // release packet references before truncating
	d.ejects = d.ejects[:0]
	d.occDecs = d.occDecs[:0]
	d.forwarded, d.bypass, d.buffered = 0, 0, 0
}

// stepLinksDomain lands the flits due this cycle on links into the domain:
// first the stalled lanes, in order, then every sending domain's arrivals.
// Landing order across lanes is not observable — each lane feeds its own
// input slot and wakes only its own receiver, and the router phase visits
// routers in ascending order whatever order they woke in — but within a
// lane it is: the stalled flits go first, and a new arrival joins them
// while any remain.
//
//sim:hot
//sim:domain
func (s *Sim) stepLinksDomain(d *domain) {
	if len(d.stalled) > 0 {
		keep := d.stalled[:0]
		for _, lane := range d.stalled {
			if s.drainStall(d, int(lane)) {
				keep = append(keep, lane)
			}
		}
		//detlint:allow sharedread own-domain list: only this domain's link phase touches its stalled lanes
		d.stalled = keep
	}
	for sd := range s.doms {
		//detlint:allow sharedread receiver-exclusive: out[d] of every sender is taken only by d, and senders schedule only in the barrier-separated router phase
		evs := s.doms[sd].out[d.di].take(s.now)
		for i := range evs {
			s.land(d, evs[i])
		}
	}
}

// land takes one flit off its wire. Under EdgeBuffers the credit it was
// sent on guarantees room; an elastic input latch may be full, or the lane
// may hold stalled flits the new one must not overtake, and then the flit
// waits in the lane's stall FIFO (backpressure into the link pipeline).
//
//sim:hot
//sim:domain
func (s *Sim) land(d *domain, a arrival) {
	l := &s.links[a.link]
	vc := int(a.vc)
	if s.stall != nil {
		lane := int(a.link)*s.vcs + vc
		slot := int(l.recvVB) + vc
		if st := &s.stall[lane]; st.n > 0 || s.inLen[slot] >= s.inCap[slot] {
			if st.n == 0 {
				//detlint:allow sharedread own-domain list: the lane leads into this domain, so only its link phase touches the entry
				d.stalled = append(d.stalled, int32(lane))
			}
			st.push(s.stallBuf, a.f)
			return
		}
	}
	s.deliver(d, l, vc, a.f)
}

// drainStall lands a stalled lane's flits while its input latch has room and
// reports whether any remain.
//
//sim:hot
//sim:domain
func (s *Sim) drainStall(d *domain, lane int) bool {
	l := &s.links[lane/s.vcs]
	vc := lane % s.vcs
	slot := int(l.recvVB) + vc
	st := &s.stall[lane]
	for st.n > 0 && s.inLen[slot] < s.inCap[slot] {
		s.deliver(d, l, vc, st.pop(s.stallBuf))
	}
	return st.n > 0
}

// deliver pushes a landed flit into input VC vc of the link's receiving
// port (into inFront when the buffer is empty, behind it in the slab
// otherwise), keeping the dense input mirrors coherent, and returns the
// pipeline slot to the sender in elastic modes.
//
//sim:hot
//sim:domain
func (s *Sim) deliver(d *domain, l *link, vc int, f flit) {
	to := l.to
	slot := int(l.recvVB) + vc
	n, c := s.inLen[slot], s.inCap[slot]
	if n >= c {
		panic("sim: input buffer overflow")
	}
	if n > 0 {
		s.inBuf[slabPos(s.inOff[slot], s.inHead[slot], n-1, c-1)] = f
	} else {
		s.inFront[slot] = f
		s.inNext[slot] = f.next
		b := l.toPort*s.vcs + vc
		//detlint:allow sharedread receiver-exclusive: one receiving router per directed link, and router to's occupancy words are its own
		s.occIn[to*s.occW+(b>>6)] |= 1 << uint(b&63)
	}
	s.inLen[slot] = n + 1
	//detlint:allow sharedread receiver-exclusive: one receiving router per directed link, sender writes only after the phase barrier
	l.pending--
	if l.pending == 0 {
		d.linksLive--
	}
	if s.stall != nil {
		// Return the pipeline slot to the sender's readiness word.
		//detlint:allow sharedread receiver-exclusive: one receiving router per directed link, the sending domain reads space only after the phase barrier
		s.space[int(l.sendVB)+vc]++
	}
	s.routerGainsFlit(d, to)
}

// mergeDomains replays every domain's staged effects into the shared engine
// state, in ascending domain order, on the main goroutine after the router
// phase. This is the serialisation point that makes the parallel engine
// byte-identical to the serial one.
//
//sim:hot
func (s *Sim) mergeDomains() {
	for di := range s.doms {
		d := &s.doms[di]
		for _, sc := range d.credits {
			s.creditWheel.schedule(s.now, sc.at, sc.ev)
		}
		d.credits = d.credits[:0]
		for _, f := range d.ejects {
			s.ejectWheel.schedule(s.now, s.now+routerDelayDirect, f)
		}
		clear(d.ejects) // release packet references before truncating
		d.ejects = d.ejects[:0]
		for _, lid := range d.occDecs {
			s.links[lid].occupancy--
		}
		d.occDecs = d.occDecs[:0]
		s.forwardedFlits += d.forwarded
		s.bypassFlits += d.bypass
		s.bufferedFlits += d.buffered
		d.forwarded, d.bypass, d.buffered = 0, 0, 0
	}
}

// Worker commands, published through parRunner.cmd.
const (
	cmdLinks uint32 = iota + 1
	cmdRouters
	cmdStop
)

// workerSlot is one worker's acknowledgement cell, padded so the spinning
// main goroutine and the worker never share a cache line with a neighbour.
type workerSlot struct {
	_   [64]byte
	ack atomic.Uint32
	_   [64]byte
}

// parRunner is the per-cycle barrier for EngineJobs > 1: the main goroutine
// publishes a command by incrementing epoch (workers spin on it), steps
// domain 0 itself, then spins until every worker has acknowledged the epoch.
// cmd is written strictly before the epoch increment and read after the
// epoch load, so the two atomics carry all ordering (and give the race
// detector its happens-before edges).
type parRunner struct {
	cmd     uint32
	epoch   atomic.Uint32
	workers []workerSlot
	started bool
	wg      sync.WaitGroup
}

// reset returns a stopped runner to its just-built state; see Sim.reset.
func (pr *parRunner) reset() {
	if pr.started {
		panic("sim: reset while domain workers are running")
	}
	pr.cmd = 0
	pr.epoch.Store(0)
	for w := range pr.workers {
		pr.workers[w].ack.Store(0)
	}
}

// startWorkers launches one goroutine per extra domain for the duration of a
// run. Idempotent; a Sim with one domain has no runner and stays serial.
// When the workers are not running (tests driving step directly), step falls
// back to stepping the domains inline in the same ascending order — same
// code, same results.
func (s *Sim) startWorkers() {
	if s.par == nil || s.par.started {
		return
	}
	s.par.started = true
	e0 := s.par.epoch.Load()
	s.par.wg.Add(len(s.par.workers))
	for w := range s.par.workers {
		go s.domainWorker(w, e0)
	}
}

// stopWorkers shuts the pool down and waits for it; safe to call when no
// pool is running. The runner stays reusable, so Run-after-Run works.
func (s *Sim) stopWorkers() {
	if s.par == nil || !s.par.started {
		return
	}
	s.par.cmd = cmdStop
	e := s.par.epoch.Add(1)
	for w := range s.par.workers {
		awaitAck(&s.par.workers[w].ack, e)
	}
	s.par.wg.Wait()
	s.par.started = false
}

// parPhase runs one phase across all domains: publish the command, step
// domain 0 on the calling (main) goroutine, then wait for every worker.
//
//sim:hot
func (s *Sim) parPhase(cmd uint32) {
	pr := s.par
	pr.cmd = cmd
	e := pr.epoch.Add(1)
	if cmd == cmdLinks {
		s.stepLinksDomain(&s.doms[0])
	} else {
		s.stepRoutersDomain(&s.doms[0])
	}
	for w := range pr.workers {
		awaitAck(&pr.workers[w].ack, e)
	}
}

// domainWorker is the steady loop of one worker goroutine: wait for an
// epoch, run the commanded phase on its domain, acknowledge.
//
//sim:domain
func (s *Sim) domainWorker(w int, last uint32) {
	defer s.par.wg.Done()
	d := &s.doms[w+1]
	for {
		e := awaitEpoch(&s.par.epoch, last)
		last = e
		cmd := s.par.cmd
		switch cmd {
		case cmdLinks:
			s.stepLinksDomain(d)
		case cmdRouters:
			s.stepRoutersDomain(d)
		}
		s.par.workers[w].ack.Store(e)
		if cmd == cmdStop {
			return
		}
	}
}

// awaitEpoch spins until the epoch moves past last, yielding the scheduler
// once the phases stop arriving back-to-back (oversubscribed boxes).
//
//sim:hot
func awaitEpoch(v *atomic.Uint32, last uint32) uint32 {
	for spins := 0; ; spins++ {
		if e := v.Load(); e != last {
			return e
		}
		if spins > 128 {
			runtime.Gosched()
		}
	}
}

// awaitAck spins until a worker acknowledges the given epoch.
//
//sim:hot
func awaitAck(v *atomic.Uint32, want uint32) {
	for spins := 0; ; spins++ {
		if v.Load() == want {
			return
		}
		if spins > 128 {
			runtime.Gosched()
		}
	}
}
