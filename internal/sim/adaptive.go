// Adaptive routing policies for the §6 study (Fig. 20): UGAL with local and
// global congestion knowledge, plus a minimal-adaptive scheme corresponding
// to FBF's XY-ADAPT.
//
// A policy writes a route in the form the engine consumes: it appends the
// route's next-hop words to the packet's recycled buffer, walked off the
// run's route table — for adaptive runs, the generic minimal table New
// compiles for the run's VC count. Route choice therefore allocates nothing
// once packet buffers have reached their high-water length, and the
// policies hold no state, so one value may serve any number of concurrent
// simulations.

package sim

import (
	"repro/internal/rng"
	"repro/internal/routing"
)

// UGAL implements Universal Globally-Adaptive Load-balanced routing: each
// packet chooses between its minimal route and a Valiant route through a
// random intermediate, weighting route length by queue occupancy. Global
// variants see occupancy along the whole route; local variants only at the
// source router's candidate output (§6). Both routes take ascending VCs,
// the Valiant route's second segment continuing the classes of its first.
type UGAL struct {
	// Global selects UGAL-G (whole-route occupancy); otherwise UGAL-L
	// (first-link occupancy only).
	Global bool
}

// Choose implements AdaptivePolicy. The minimal route's words are laid down
// first and the Valiant route's after them; when the Valiant route wins it
// is moved over the minimal one.
//
//sim:hot
func (u *UGAL) Choose(s *Sim, rng *rng.Stream, srcRouter, dstRouter int, next []uint32) []uint32 {
	t := s.table
	base := len(next)
	next = t.AppendAscending(next, srcRouter, dstRouter, 0)
	val := len(next)
	if val == base {
		next = append(next, nextEject)
		return next
	}
	// A degenerate intermediate makes the Valiant route the minimal one,
	// which then wins the tie.
	if mid := routing.RandomIntermediate(rng, t.Nr(), srcRouter, dstRouter); mid != srcRouter && mid != dstRouter {
		next = t.AppendAscending(next, srcRouter, mid, 0)
		next = t.AppendAscending(next, mid, dstRouter, len(next)-val)
		minW, valW := next[base:val], next[val:]
		var costMin, costVal int
		if u.Global {
			costMin = (s.routeOcc(srcRouter, minW) + 1) * len(minW)
			costVal = (s.routeOcc(srcRouter, valW) + 1) * len(valW)
		} else {
			costMin = (s.portOcc(srcRouter, int(minW[0]>>16)) + 1) * len(minW)
			costVal = (s.portOcc(srcRouter, int(valW[0]>>16)) + 1) * len(valW)
		}
		if costVal < costMin {
			val = base + copy(next[base:], valW)
		}
		next = next[:val]
	}
	next = append(next, nextEject)
	return next
}

// MinAdaptive picks, per packet, the minimal next hop with the least
// occupied first link (the first in adjacency order on a tie), then follows
// the deterministic minimal route. On an FBF this selects between the XY
// and YX quadrature paths, i.e. the paper's XY-ADAPT comparison point.
type MinAdaptive struct{}

// Choose implements AdaptivePolicy.
//
//sim:hot
func (m *MinAdaptive) Choose(s *Sim, _ *rng.Stream, srcRouter, dstRouter int, next []uint32) []uint32 {
	if srcRouter != dstRouter {
		t := s.table
		adj := s.net.Adj[srcRouter]
		hops := t.Hops(srcRouter, dstRouter)
		best, bestOcc := -1, 0
		for p, v := range adj {
			if t.Hops(v, dstRouter) != hops-1 {
				continue
			}
			if occ := s.portOcc(srcRouter, p); best < 0 || occ < bestOcc {
				best, bestOcc = p, occ
			}
		}
		next = append(next, routing.NextWord(best, 0, s.vcs))
		next = t.AppendAscending(next, adj[best], dstRouter, 1)
	}
	next = append(next, nextEject)
	return next
}

// portOcc returns the flit occupancy of the link leaving router r through
// output port p (the UGAL congestion signal): its flits on the wire or
// stalled at its end, plus those in the input buffers it feeds. Policies
// read it between cycles, from the serial phases.
//
//sim:hot
func (s *Sim) portOcc(r, p int) int {
	l := &s.links[s.outLink[r*s.stride+p]]
	occ := l.pending
	for _, n := range s.inLen[l.recvVB : int(l.recvVB)+s.vcs] {
		occ += int(n)
	}
	return occ
}

// routeOcc sums the link occupancy along a run of next-hop words starting
// at router r (the UGAL-G signal).
//
//sim:hot
func (s *Sim) routeOcc(r int, words []uint32) int {
	occ := 0
	for _, w := range words {
		p := int(w >> 16)
		occ += s.portOcc(r, p)
		r = s.net.Adj[r][p]
	}
	return occ
}
