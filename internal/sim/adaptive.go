// Adaptive routing policies for the §6 study (Fig. 20): UGAL with local and
// global congestion knowledge, plus a minimal-adaptive scheme corresponding
// to FBF's XY-ADAPT.

package sim

import (
	"repro/internal/rng"
	"repro/internal/routing"
)

// UGAL implements Universal Globally-Adaptive Load-balanced routing: each
// packet chooses between its minimal path and a Valiant path through a
// random intermediate, weighting path length by queue occupancy. Global
// variants see occupancy along the whole path; local variants only at the
// source router's candidate output (§6).
//
// Candidate paths are walked off the simulation's minimal route table
// (Sim.MinRoutes) into reused scratch buffers, so route selection
// allocates nothing once the table is compiled. The returned slices are only
// valid until the next Choose call, which the simulator's contract allows;
// a UGAL value must not be shared by concurrently running simulations.
type UGAL struct {
	// Global selects UGAL-G (whole-path occupancy); otherwise UGAL-L
	// (first-link occupancy only).
	Global bool
	// VCs used for the chosen path's ascending VC assignment.
	VCs int

	minPath, valPath, vcsBuf []int
}

// Choose implements AdaptivePolicy.
func (u *UGAL) Choose(s *Sim, rng *rng.Stream, srcRouter, dstRouter int) ([]int, []int) {
	t := s.MinRoutes()
	u.minPath = t.AppendPath(u.minPath[:0], srcRouter, dstRouter)
	if len(u.minPath) <= 1 {
		return u.minPath, nil
	}
	p := s.Paths()
	mid := p.RandomIntermediate(rng, srcRouter, dstRouter)
	// Valiant path src->mid->dst without duplicating mid; degenerate
	// intermediates fall back to the minimal path.
	if mid == srcRouter || mid == dstRouter {
		u.valPath = t.AppendPath(u.valPath[:0], srcRouter, dstRouter)
	} else {
		u.valPath = t.AppendPath(u.valPath[:0], srcRouter, mid)
		u.valPath = t.AppendPathTail(u.valPath, mid, dstRouter)
	}
	var costMin, costVal int
	if u.Global {
		costMin = (s.PathOccupancy(u.minPath) + 1) * (len(u.minPath) - 1)
		costVal = (s.PathOccupancy(u.valPath) + 1) * (len(u.valPath) - 1)
	} else {
		costMin = (s.LinkOccupancy(u.minPath[0], u.minPath[1]) + 1) * (len(u.minPath) - 1)
		costVal = (s.LinkOccupancy(u.valPath[0], u.valPath[1]) + 1) * (len(u.valPath) - 1)
	}
	path := u.minPath
	if costVal < costMin {
		path = u.valPath
	}
	u.vcsBuf = routing.AppendAscendingVCs(u.vcsBuf[:0], len(path)-1, u.VCs)
	return path, u.vcsBuf
}

// MinAdaptive picks, per packet, the minimal next hop with the least
// occupied first link, then follows the deterministic minimal route. On an
// FBF this selects between the XY and YX quadrature paths, i.e. the paper's
// XY-ADAPT comparison point.
type MinAdaptive struct {
	VCs int
}

// Choose implements AdaptivePolicy.
func (m *MinAdaptive) Choose(s *Sim, rng *rng.Stream, srcRouter, dstRouter int) ([]int, []int) {
	p := s.Paths()
	if srcRouter == dstRouter {
		return []int{srcRouter}, nil
	}
	best, bestOcc := -1, 0
	for _, nh := range p.NextHops(srcRouter, dstRouter) {
		occ := s.LinkOccupancy(srcRouter, nh)
		if best < 0 || occ < bestOcc {
			best, bestOcc = nh, occ
		}
	}
	path := append([]int{srcRouter}, p.MinPath(best, dstRouter)...)
	return path, routing.AscendingVCs(len(path)-1, m.VCs)
}
