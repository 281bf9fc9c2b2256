package sim

import (
	"context"
	"fmt"
	"math/bits"
	"testing"
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
		if int(prev.pkt) >= len(s.pkts) {
			return fmt.Errorf("input slot %d: %d flits but the front flit names packet %d of %d", slot, n, prev.pkt, len(s.pkts))
		}
		for i := int32(1); i < n; i++ {
			f := s.inBuf[slabPos(s.inOff[slot], h, i-1, c-1)]
			ok := f.head()
			if !prev.tail(s.pkts[prev.pkt]) {
				ok = f.pkt == prev.pkt && f.idx == prev.idx+1
			}
			if !ok {
				return fmt.Errorf("input slot %d: flit %d of packet %d follows flit %d of packet %d", slot, f.idx, f.pkt, prev.idx, prev.pkt)
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
		queued, src := int32(0), (*packet)(nil)
		for p := nc.front; p != nil; p = p.qnext {
			moved := p.flitsMoved
			if p == nc.front {
				if int32(nc.injIdx) > moved || moved > p.flits {
					return fmt.Errorf("node %d: front packet %d at flit %d, %d of %d moved", v, p.ref, nc.injIdx, moved, p.flits)
				}
				moved -= int32(nc.injIdx)
			}
			queued += moved
			if src == nil && p.flitsMoved < p.flits {
				src = p
			}
			if p.qnext == nil && p != nc.last {
				return fmt.Errorf("node %d: packet list ends at packet %d, last is packet %d", v, p.ref, nc.last.ref)
			}
		}
		if nc.front == nil && nc.injIdx != 0 {
			return fmt.Errorf("node %d: empty packet list but front flit %d", v, nc.injIdx)
		}
		if queued != nc.injLen || src != nc.src {
			return fmt.Errorf("node %d: packet list holds %d moved flits and its first unmoved packet is %p; injLen %d, src %p", v, queued, src, nc.injLen, nc.src)
		}
		if nc.src != nil {
			backlog++
		}
		want := uint32(nextNone)
		if nc.injLen > 0 {
			want = s.nextWord(nc.front, s.net.NodeRouter(v), 0)
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
					return fmt.Errorf("router %d: CB record of packet %d holds %d flits, expects %d", r, cp.pkt, cp.stored, cp.expected)
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
				return fmt.Errorf("input slot %d: body flit %d of packet %d in front of an undecided input", slot, f.idx, f.pkt)
			}
			continue
		}
		if s.inLen[slot] == 0 {
			continue // the rest of the packet is still on the wire
		}
		f := s.inFront[slot]
		if cp == cbBypass {
			if f.head() {
				return fmt.Errorf("input slot %d: head of packet %d behind a bypass decision", slot, f.pkt)
			}
		} else if f.pkt != cp.pkt || int32(f.idx) != s.pkts[cp.pkt].flits-cp.expected {
			return fmt.Errorf("input slot %d: flit %d of packet %d in front of the CB record of packet %d expecting %d more", slot, f.idx, f.pkt, cp.pkt, cp.expected)
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

// StuckReport describes where in-flight flits are waiting.
type StuckReport struct {
	InInputBuffers int
	OnLinks        int
	InInjQueues    int
	InCB           int
	PendingEject   int
	Details        []string
}

// Stuck scans all simulator state for resident flits, with a short
// description of each group (capped).
func (s *Sim) Stuck() StuckReport {
	var rep StuckReport
	add := func(detail string) {
		if len(rep.Details) < 40 {
			rep.Details = append(rep.Details, detail)
		}
	}
	for r := 0; r < s.net.Nr; r++ {
		for pi := 0; pi < int(s.kp[r]); pi++ {
			vb := (r*s.stride + pi) * s.vcs
			for vc := 0; vc < s.vcs; vc++ {
				slot := vb + vc
				if n := s.inLen[slot]; n > 0 {
					rep.InInputBuffers += int(n)
					f := s.inFront[slot]
					p := s.pkts[f.pkt]
					add(fmt.Sprintf("router %d in[%d][%d]: %d flits; head pkt %d (src %d dst %d hop %d via router %d until hop %d flit %d%s)",
						r, pi, vc, n, f.pkt, p.src, p.dst, f.hop, p.via, p.viaHops, f.idx, s.cbDecision(slot)))
				}
			}
			for vc := 0; vc < s.vcs && s.cbq != nil; vc++ {
				for cp := s.cbq[vb+vc].head; cp != nil; cp = cp.qnext {
					rep.InCB += int(cp.stored)
					add(fmt.Sprintf("router %d CB (port %d vc %d): pkt %d stored %d expected %d",
						r, pi, vc, cp.pkt, cp.stored, cp.expected))
				}
			}
		}
	}
	// Flits on wires ride the arrival wheels, or wait in a stall FIFO at the
	// end of theirs; both are counted per lane.
	onLane := make([]int, len(s.laneLast))
	for di := range s.doms {
		for _, w := range s.doms[di].out {
			for _, b := range w.buckets {
				for _, a := range b {
					onLane[int(a.link)*s.vcs+int(a.vc)]++
				}
			}
		}
	}
	for lane, n := range onLane {
		stalled := 0
		if s.stall != nil {
			stalled = int(s.stall[lane].n)
		}
		if n += stalled; n > 0 {
			rep.OnLinks += n
			l := &s.links[lane/s.vcs]
			add(fmt.Sprintf("link %d->%d vc %d: %d flits (%d stalled at a full input, now %d)",
				l.from, l.to, lane%s.vcs, n, stalled, s.now))
		}
	}
	for v := range s.nics {
		if n := s.nics[v].injLen; n > 0 {
			rep.InInjQueues += int(n)
			f := s.injFront(v)
			add(fmt.Sprintf("node %d injQ: %d flits (pkt %d dst %d)", v, n, f.pkt, s.pkts[f.pkt].dst))
		}
	}
	for di := range s.doms {
		rep.PendingEject += s.doms[di].ejection.pending
	}
	return rep
}

// cbDecision describes a central-buffer router input's decision for the
// packet at its front ("" on other schemes).
func (s *Sim) cbDecision(slot int) string {
	if s.cbIn == nil {
		return ""
	}
	switch s.cbIn[slot] {
	case nil:
		return "; cb undecided"
	case cbBypass:
		return "; cb bypass"
	}
	return "; cb buffered"
}

// InFlight returns the number of flits currently inside the network,
// injection queues, or links — zero after a fully drained run. Exposed for
// conservation checks.
func (s *Sim) InFlight() int64 { return s.inFlightFlits }

// CBPathStats returns the number of flits that took the central-buffer
// router's bypass path versus its buffered path (meaningful only for
// Scheme == core.CBR).
func (s *Sim) CBPathStats() (bypass, buffered int64) {
	for di := range s.doms {
		bypass += s.doms[di].bypass
		buffered += s.doms[di].buffered
	}
	return bypass, buffered
}

// ForwardedFlits returns the number of flits forwarded out of an input
// stage at an intermediate router (injections and ejections excluded). For
// the central-buffer scheme this always equals bypass+buffered — the
// conservation invariant pinned by TestFlitConservation.
func (s *Sim) ForwardedFlits() (n int64) {
	for di := range s.doms {
		n += s.doms[di].forwarded
	}
	return n
}

// CalendarAllocs steps the engine through its warmup phase and after more
// cycles, then returns the heap allocations per cycle of the loop the
// engine runs (a step, then a skip decision) over runs more cycles, and the
// packets delivered in the measurement window by then.
func (s *Sim) CalendarAllocs(after int64, runs int) (allocs float64, measured int64) {
	warm := s.cfg.WarmupCycles + after
	for s.now = 0; s.now < warm; s.now++ {
		s.step()
	}
	total := s.cfg.WarmupCycles + s.cfg.MeasureCycles + s.cfg.DrainCycles
	allocs = testing.AllocsPerRun(runs, func() {
		s.step()
		s.skipAhead(total)
		s.now++
	})
	return allocs, s.doneMeasured
}

// Run executes the configured warmup + measurement + drain and returns the
// result.
func (s *Sim) Run() Result {
	res, _ := s.RunContext(context.Background(), 0, nil)
	return res
}

// EstimateLatencies runs one episode on an engine built for the call: the
// construct-per-call form of EpisodeEngine.Latencies, and the reference the
// reuse tests compare a long-lived engine against.
func EstimateLatencies(cfg Config, transfers []Transfer, maxCycles int64) ([]int64, error) {
	e, err := NewEpisodeEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.Latencies(transfers, maxCycles)
}
