// Event-calendar time advancement. The engine is event-driven already: the
// routers with resident flits are marked in per-domain busy sets, NICs are
// woken only when they can inject, and every delayed event — a flit landing
// off a wire, a credit return, an ejection — sits in a timing wheel at the
// cycle it fires.
// The calendar unifies those views: when no router holds a flit, no NIC has
// backlog and no lane is stalled, nothing can happen until the earliest of
// (a) the traffic source's next declared fire, (b) the next credit-wheel
// event, (c) the next ejection-wheel event, or (d) the next flit landing off
// any arrival wheel — so the stepping loop jumps `now` straight there
// instead of visiting each dead cycle.
//
// The jump is exact-equivalent, not approximate: a skipped cycle is one the
// classic loop would have stepped with zero state change (no generation — by
// the NextFirer contract or because the generation phases are over — no
// credit returns, no ejections, no link deliveries, no router or NIC work),
// so Results, the RNG stream, and EngineStats all come out byte-identical to
// cycle-stepping (pinned by diff_test.go and testdata/golden_idle.json,
// including under EngineJobs domain-parallel stepping — skip decisions are
// taken on the main goroutine between cycles, where the per-cycle barrier
// already holds). The only observable additions are the CyclesSkipped /
// CalendarPeak telemetry fields, which are zero under Config.CycleStep.
//
// Every horizon the decision needs is a wheel's nextDue, so the decision
// costs O(wheels x horizon) whatever the network's size or activity pattern.
package sim

import "repro/internal/core"

// skipAhead jumps the clock over cycles that provably change nothing. limit
// is exclusive-of-skipping: the first cycle the caller must step normally
// (a context-poll boundary, the run's total, or an estimate episode's cycle
// cap), so cancellation latency and progress cadence are unchanged. After a
// skip of k cycles the clock sits at wake-1 and the caller's s.now++ lands
// exactly on the first cycle with work. Allocation-free: the wheel scans
// reuse existing storage (pinned by TestSteadyStateZeroAllocs).
func (s *Sim) skipAhead(limit int64) {
	if limit <= s.now+1 {
		return
	}
	// Anything resident at a router or NIC, or stalled at the end of a wire,
	// can act next cycle.
	if s.nicBacklog != 0 {
		return
	}
	for di := range s.doms {
		if s.doms[di].nBusy != 0 || len(s.doms[di].stalled) != 0 {
			return
		}
	}
	wake := limit
	// Source generation: during the warmup+measurement phases the source is
	// called every cycle, so skipping needs its NextFirer declaration that
	// the calls are no-ops (no emission, zero RNG draws). A hint at or
	// beyond the generation phases is moot — Generate is not called there.
	genEnd := s.cfg.WarmupCycles + s.cfg.MeasureCycles
	if s.now+1 < genEnd {
		if s.nextFire == nil {
			return
		}
		nf := s.nextFire.NextFire(s.now)
		if nf <= s.now+1 {
			return
		}
		if nf < genEnd && nf < wake {
			wake = nf
		}
	}
	// Credit returns, ejections and link deliveries: every delayed event
	// sits in one of the domains' wheels at the cycle it fires. backlog
	// doubles as the calendar-depth sample.
	backlog, al := 0, 0
	for di := range s.doms {
		d := &s.doms[di]
		al += d.linksLive
		backlog += d.credit.pending + d.ejection.pending
		wake = min(wake, d.credit.nextDue(s.now), d.ejection.nextDue(s.now))
		for rd := range d.out {
			backlog += d.out[rd].pending
			wake = min(wake, d.out[rd].nextDue(s.now))
		}
	}
	if wake <= s.now+1 {
		return
	}
	// The skipped cycles still elapse for every statistic: the classic loop
	// would have counted k more cycles with zero active routers and NICs and
	// an unchanged active-link population (a link goes idle only when a flit
	// lands, and none lands before wake).
	k := wake - s.now - 1
	s.eng.cycles += k
	s.eng.cyclesSkipped += k
	s.eng.linkSum += k * int64(al)
	if backlog > s.eng.calendarPeak {
		s.eng.calendarPeak = backlog
	}
	s.now = wake - 1
}

// memEstimate predicts the engine's resident footprint in bytes for the
// MemBudgetBytes guard: the SoA router arrays and central-buffer heads, the
// input and stall slabs, the links and their per-lane wire state, the
// arrival wheels, NICs, and the compiled route table (one byte per router
// pair, supplied or compiled by New). Deliberately computed from the same
// geometry New allocates from, before it allocates. Wheel buckets count at
// their construction size; what they grow to depends on the traffic.
func (c *Config) memEstimate(stride int) int64 {
	nr := int64(c.Net.Nr)
	n := int64(c.Net.N())
	vcs := int64(c.VCs)
	var edges, slab, stallSlab int64
	maxLat := int64(1)
	for r, adj := range c.Net.Adj {
		edges += int64(len(adj))
		for _, nb := range adj {
			dist := core.WireLength(c.Net, r, nb)
			maxLat = max(maxLat, int64(c.LinkCycles(dist)))
			slab += int64(c.InputCap(dist)-1) * vcs
			stallSlab += int64(c.LatchCap(dist)) * vcs
		}
	}
	np := nr * int64(stride)
	nv := np * vcs
	lanes := edges * vcs
	nd := int64(c.domains())
	const flitBytes = 12                             // flit: packet index + idx + hop + next
	const linkBytes = 48                             // link: endpoints, latency, pending, VC bases
	b := np * (3 * 4)                                // outLink/inLink/revPort
	b += nv*(4+4+4+4+4+4+flitBytes) + slab*flitBytes // inCap/inOff/inHead + outOwner + space + inLen + inFront; inBuf
	if c.Scheme == core.CBR {
		b += nv * (16 + 8) // cbq heads and tails + cbIn
	}
	b += edges*linkBytes + lanes*8 // links + laneLast
	if !c.Scheme.EdgeBuffers() {
		b += lanes*16 + stallSlab*flitBytes // stall FIFOs + stallBuf
	}
	b += nd * nd * wheelSize(arrivalHorizon(maxLat)) * 24        // arrival wheel bucket headers
	b += n * (32 + 8 + 4 + 1)                                    // nics + ejUsedAt + injNext + nicReady
	b += nr * (4 + 4 + 4 + 4)                                    // kp/cbFree/work/domOf
	b += (nr*max(1, (int64(stride)*vcs+63)/64) + nr/64 + nd) * 8 // occIn + domain busy sets
	if c.Table != nil && c.Adaptive == nil {
		b += c.Table.MemBytes()
	} else {
		b += nr * nr // the table New compiles: one byte per router pair
	}
	return b
}
