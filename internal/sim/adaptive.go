// Adaptive routing policies for the §6 study (Fig. 20): UGAL with local and
// global congestion knowledge, plus a minimal-adaptive scheme corresponding
// to FBF's XY-ADAPT.
//
// A route is the run's table (the generic minimal one New compiles for
// adaptive runs), the destination and at most one waypoint, and the engine
// computes each hop's word from them as the hop is taken (nextWord). A
// policy chooses only the waypoint and holds no state, so route choice
// allocates nothing and one value may serve any number of simulations.

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

// Choose implements AdaptivePolicy. The Valiant route wins only if strictly
// cheaper; a degenerate intermediate (none to pick) keeps the minimal route.
func (u *UGAL) Choose(s *Sim, rng *rng.Stream, srcRouter, dstRouter int) (via, viaHops int) {
	if srcRouter == dstRouter {
		return 0, 0
	}
	mid := routing.RandomIntermediate(rng, s.table.Nr(), srcRouter, dstRouter)
	if mid == srcRouter || mid == dstRouter {
		return 0, 0
	}
	links := s.table.Nr() // every link of a route (UGAL-G), or the first
	if !u.Global {
		links = 1
	}
	minHops, minOcc := s.routeLoad(srcRouter, dstRouter, links)
	viaHops, viaOcc := s.routeLoad(srcRouter, mid, links)
	restHops, restOcc := s.routeLoad(mid, dstRouter, links-1)
	if (viaOcc+restOcc+1)*(viaHops+restHops) < (minOcc+1)*minHops {
		return mid, viaHops
	}
	return 0, 0
}

// MinAdaptive picks, per packet, the minimal next hop with the least
// occupied first link (the first in adjacency order on a tie), then follows
// the deterministic minimal route. On an FBF this selects between the XY
// and YX quadrature paths, i.e. the paper's XY-ADAPT comparison point.
type MinAdaptive struct{}

// Choose implements AdaptivePolicy. The chosen neighbour is a one-hop
// waypoint: New wires one link per neighbour, so the table's port toward it
// is its adjacency position.
func (m *MinAdaptive) Choose(s *Sim, _ *rng.Stream, srcRouter, dstRouter int) (via, viaHops int) {
	if srcRouter == dstRouter {
		return 0, 0
	}
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
	return adj[best], 1
}

// portOcc returns the flit occupancy of the link leaving router r through
// output port p (the UGAL congestion signal): its flits on the wire or
// stalled at its end, plus those in the input buffers it feeds. Policies
// read it between cycles, from the serial phases.
func (s *Sim) portOcc(r, p int) int {
	l := &s.links[s.outLink[r*s.stride+p]]
	occ := l.pending
	for _, n := range s.inLen[l.recvVB : int(l.recvVB)+s.vcs] {
		occ += int(n)
	}
	return occ
}

// routeLoad walks the table's route from router r to dst and returns its hop
// count and the summed occupancy (portOcc) of its first n links: UGAL-L
// prices one link, UGAL-G all of them.
func (s *Sim) routeLoad(r, dst, n int) (hops, occ int) {
	for ; r != dst; hops++ {
		p := s.table.Port(r, dst, hops)
		if hops < n {
			occ += s.portOcc(r, p)
		}
		r = s.net.Adj[r][p]
	}
	return hops, occ
}
