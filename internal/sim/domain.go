// Deterministic domain-parallel stepping. The routers are partitioned into
// contiguous index ranges ("domains"); each cycle the link-delivery phase
// and the router phase run once per domain — on a pool of worker goroutines
// with a per-cycle spin barrier when there is more than one, inline in
// ascending domain order otherwise. Everything a domain writes in those
// phases is owned by it:
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
//     pending and space decrements — a directed link has exactly one
//     sending router, and the phase barrier separates sender-phase writes
//     from receiver-phase writes;
//   - its credit and ejection wheels and its forwarding counters. A credit
//     may return to a router of another domain, but the wheel is taken in
//     the serial credit phase, where the order of returns is not observable
//     (each is one space increment).
//
// Ejection order is observable (latency sample order, OnDelivered reply
// sequencing), so flushEjections takes the domains' ejection wheels in
// ascending domain order. Domains are contiguous ascending router ranges
// and each schedules in its own ascending-router visit order, so that take
// order reproduces the ascending-router-index order of one domain exactly —
// which is why results are byte-identical at every domain count (pinned by
// TestDomainParallelIdentity, TestEjectionOrderAcrossDomains and the golden
// fixtures). The 1-domain engine runs the same code.

package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

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
	// credit and ejection are the domain's delayed credit returns and
	// ejections, scheduled by its router phase and taken by the serial
	// credit and ejection phases (see the package comment above).
	credit   wheel[creditEvent]
	ejection wheel[flit]
	// Flits forwarded out of an input stage, and of those the CBR bypass
	// and buffered ones (the conservation tests sum them).
	forwarded int64
	bypass    int64
	buffered  int64
	// pad keeps adjacent domains' hot fields on distinct cache lines.
	_ [64]byte
}

// minDomainRouters is the fewest routers a domain holds when New picks the
// domain count itself (Config.EngineJobs 0). Measured on a 2-vCPU box at rnd
// 0.30 with SMART: the 1250-router sn_subgr_10000 took 10.6 s and 11.4 s
// serial and 7.8 s and 7.9 s on two domains (3000 cycles); 512 routers took
// 1.69 s and 1.83 s serial and 1.25 s and 1.59 s on two; the 162-router
// sn_gr_1296 lost (614 ms and 627 ms serial, 636 ms and 737 ms on two). So
// the largest networks split, while 512 routers and every benchmark workload
// stay on the serial path until a loaded large workload measures lower.
const minDomainRouters = 600

// domainCount is the number of spatial domains New steps nr routers across
// with procs Ps available (runtime.GOMAXPROCS). A set Config.EngineJobs is
// taken as given, clamped to [1, nr]; 0 lets the engine choose one domain
// per minDomainRouters routers, at most one per P.
func domainCount(jobs, nr, procs int) int {
	if jobs == 0 {
		jobs = 1
		if nr >= minDomainRouters && procs > 1 {
			jobs = min(procs, nr/minDomainRouters)
		}
	}
	return max(1, min(jobs, nr))
}

// domains is the domain count New builds for this config and memEstimate
// charges for.
func (c *Config) domains() int {
	return domainCount(c.EngineJobs, c.Net.Nr, runtime.GOMAXPROCS(0))
}

// buildDomains splits the routers into nd contiguous ranges, sizes the
// ownership lookups and gives every (sending, receiving) domain pair an
// arrival wheel and every domain its credit and ejection wheels, each wheel
// sized to the longest delay its events have on wires of at most maxLat
// cycles. Called once from New; the domains' mutable state gets its initial
// values from domain.reset.
func (s *Sim) buildDomains(nd int, maxLat int64) {
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
			d.out[rd] = *newWheel[arrival](arrivalHorizon(maxLat))
		}
		d.credit = *newWheel[creditEvent](maxLat + 1)
		d.ejection = *newWheel[flit](routerDelayDirect + 1)
		for r := lo; r < hi; r++ {
			s.domOf[r] = int32(di)
		}
	}
	if nd > 1 {
		s.par = &parRunner{workers: make([]workerSlot, nd-1)}
	}
}

// arrivalHorizon sizes the arrival wheels: a send lands at most the buffered
// router delay plus the longest wire after now, and the per-lane FIFO rule
// only ever delays it to an earlier send's landing cycle.
func arrivalHorizon(maxLat int64) int64 { return maxLat + routerDelayBuffered + 1 }

// reset empties the domain's busy set, lists and wheels (keeping their
// capacity) and zeroes its counters; see Sim.reset. The central-buffer
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
	d.credit.reset()
	d.ejection.reset()
	d.forwarded, d.bypass, d.buffered = 0, 0, 0
}

// stepLinksDomain lands the flits due this cycle on links into the domain:
// first the stalled lanes, in order, then every sending domain's arrivals.
// Landing order across lanes is not observable — each lane feeds its own
// input slot and wakes only its own receiver, and the router phase visits
// routers in ascending order whatever order they woke in — but within a
// lane it is: the stalled flits go first, and a new arrival joins them
// while any remain.
func (s *Sim) stepLinksDomain(d *domain) {
	if len(d.stalled) > 0 {
		keep := d.stalled[:0]
		for _, lane := range d.stalled {
			if s.drainStall(d, int(lane)) {
				keep = append(keep, lane)
			}
		}
		d.stalled = keep
	}
	for sd := range s.doms {
		// Only d takes out[d] of each sender, and senders schedule only in
		// the router phase, behind the phase barrier.
		evs := s.doms[sd].out[d.di].take(s.now)
		for i := range evs {
			s.land(d, evs[i])
		}
	}
}

// land takes one flit off its wire. Under edge buffers the credit it was
// sent on guarantees room; an elastic input latch may be full, or the lane
// may hold stalled flits the new one must not overtake, and then the flit
// waits in the lane's stall FIFO (backpressure into the link pipeline).
func (s *Sim) land(d *domain, a arrival) {
	l := &s.links[a.link]
	vc := int(a.vc)
	if s.stall != nil {
		lane := int(a.link)*s.vcs + vc
		slot := int(l.recvVB) + vc
		if st := &s.stall[lane]; st.n > 0 || s.inLen[slot] >= s.inCap[slot] {
			if st.n == 0 {
				// The lane leads into d, so its stall list is d's own.
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
// pipeline slot to the sender in elastic modes. One router receives on each
// directed link, so the input slots and occupancy words it writes are its
// own; the sender writes pending and reads space only after the phase
// barrier.
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
		b := l.toPort*s.vcs + vc
		s.occIn[to*s.occW+(b>>6)] |= 1 << uint(b&63)
	}
	s.inLen[slot] = n + 1
	l.pending--
	if l.pending == 0 {
		d.linksLive--
	}
	if s.stall != nil {
		// Return the pipeline slot to the sender's readiness word.
		s.space[int(l.sendVB)+vc]++
	}
	s.routerGainsFlit(d, to)
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

// parRunner is the per-cycle barrier for more than one domain: the main
// goroutine publishes a command by incrementing epoch (workers spin on it),
// steps domain 0 itself, then spins until every worker has acknowledged the
// epoch. cmd is written strictly before the epoch increment and read after
// the epoch load, so the two atomics carry all ordering (and give the race
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
