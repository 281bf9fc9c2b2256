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
				q := &s.inQ[vb+vc]
				if q.len() > 0 {
					rep.InInputBuffers += q.len()
					f := q.front()
					p := f.pkt
					add(fmt.Sprintf("router %d in[%d][%d]: %d flits; head pkt %d (src %d dst %d hop %d/%d flit %d cb=%v)",
						r, pi, vc, q.len(), p.id, p.src, p.dst, f.hop, len(p.next)-1, f.idx, p.cbState))
				}
			}
			for vc := 0; vc < s.vcs && s.cbq != nil; vc++ {
				q := &s.cbq[vb+vc]
				for i := 0; i < q.len(); i++ {
					cp := q.at(i)
					if cp.stored.len() > 0 || cp.expected > 0 {
						rep.InCB += cp.stored.len()
						add(fmt.Sprintf("router %d CB (port %d vc %d): pkt %d stored %d expected %d",
							r, pi, vc, cp.pkt.id, cp.stored.len(), cp.expected))
					}
				}
			}
		}
	}
	for li := range s.links {
		l := &s.links[li]
		for vc := range l.lanes {
			lane := &l.lanes[vc]
			if n := lane.len(); n > 0 {
				rep.OnLinks += n
				lf := lane.front()
				add(fmt.Sprintf("link %d->%d vc %d: %d flits (head pkt %d arrive %d, now %d)",
					l.from, l.to, vc, n, lf.f.pkt.id, lf.arrive, s.now))
			}
		}
	}
	for v := range s.nics {
		if n := s.nics[v].injQ.len(); n > 0 {
			rep.InInjQueues += n
			f := s.nics[v].injQ.front()
			add(fmt.Sprintf("node %d injQ: %d flits (pkt %d dst %d)", v, n, f.pkt.id, f.pkt.dst))
		}
	}
	rep.PendingEject = s.ejectWheel.pending
	return rep
}
