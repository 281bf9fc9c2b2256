// Diagnostics for tests and deadlock hunting.

package sim

import "fmt"

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
