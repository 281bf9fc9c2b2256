// Physical layouts and the placement model of §3.2.1 and §3.3.

package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/topo"
)

// Layout selects one of the paper's physical router placements (§3.3).
type Layout string

// The four layouts analysed in the paper. Basic and Subgroup use a
// rectangular q x 2q die; Group arranges the q merged groups on a
// near-square grid of near-square blocks; Rand permutes routers over the
// q x 2q slots (the paper's strawman).
const (
	LayoutBasic    Layout = "basic"
	LayoutSubgroup Layout = "subgr"
	LayoutGroup    Layout = "gr"
	LayoutRand     Layout = "rand"
)

// Layouts lists all layouts in the paper's presentation order.
func Layouts() []Layout {
	return []Layout{LayoutRand, LayoutBasic, LayoutGroup, LayoutSubgroup}
}

// coordinates assigns every router a 2D grid coordinate under the given
// layout. Seed is used only by LayoutRand. Coordinates are 1-indexed as in
// the paper's placement model.
func (s *SlimNoC) coordinates(l Layout, seed int64) ([]topo.Coord, error) {
	q := s.Q
	coords := make([]topo.Coord, s.Nr())
	switch l {
	case LayoutBasic:
		// [G|a,b] -> (b, a + G*q): subgroups of the same type stacked.
		for i := range coords {
			lb := s.LabelOf(i)
			coords[i] = topo.Coord{X: lb.B + 1, Y: lb.A + 1 + lb.G*q}
		}
	case LayoutSubgroup:
		// [G|a,b] -> (b, 2a - (1-G)): subgroups of different types
		// interleaved pairwise to shorten inter-subgroup wires.
		for i := range coords {
			lb := s.LabelOf(i)
			coords[i] = topo.Coord{X: lb.B + 1, Y: 2*(lb.A+1) - (1 - lb.G)}
		}
	case LayoutGroup:
		// Groups (pairs of subgroups with the same ID a) are merged and
		// placed as blocks of width ceil(sqrt(2q)) on a grid of
		// ceil(sqrt(q)) block columns, keeping the die near-square.
		s2q := int(math.Ceil(math.Sqrt(float64(2 * q))))
		gcols := int(math.Ceil(math.Sqrt(float64(q))))
		bh := (2*q + s2q - 1) / s2q
		for i := range coords {
			lb := s.LabelOf(i)
			r := lb.B + lb.G*q // 0..2q-1: position within the merged group
			gx, gy := lb.A%gcols, lb.A/gcols
			coords[i] = topo.Coord{
				X: gx*s2q + r%s2q + 1,
				Y: gy*bh + r/s2q + 1,
			}
		}
	case LayoutRand:
		// Random placement over the q x 2q slots.
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(s.Nr())
		for i := range coords {
			slot := perm[i]
			coords[i] = topo.Coord{X: slot%q + 1, Y: slot/q + 1}
		}
	default:
		return nil, fmt.Errorf("core: unknown layout %q", l)
	}
	return coords, nil
}

// wireCrossings implements the placement-constraint model of §3.2.1
// (Eq. 1-3). Each directed link (i, j) is routed as an L-shaped Manhattan
// path: vertical-first from i when |xi-xj| > |yi-yj|, horizontal-first
// otherwise. The result counts, for every grid cell, the number of wires
// placed over it; cells are indexed [x][y], 0-based on a grid sized by the
// placement's extents.
func wireCrossings(n *topo.Network) [][]int {
	mx, my := n.GridDims()
	count := make([][]int, mx)
	for x := range count {
		count[x] = make([]int, my)
	}
	mark := func(x, y int) { count[x-1][y-1]++ }
	for i := 0; i < n.Nr; i++ {
		for _, j := range n.Adj[i] {
			ci, cj := n.Coords[i], n.Coords[j]
			dx, dy := absInt(ci.X-cj.X), absInt(ci.Y-cj.Y)
			if dx > dy {
				// Vertical-first: (xi,yi) -> (xi,yj) -> (xj,yj).
				for y := minInt(ci.Y, cj.Y); y <= maxInt(ci.Y, cj.Y); y++ {
					mark(ci.X, y)
				}
				for x := minInt(ci.X, cj.X); x <= maxInt(ci.X, cj.X); x++ {
					if x != ci.X {
						mark(x, cj.Y)
					}
				}
			} else {
				// Horizontal-first: (xi,yi) -> (xj,yi) -> (xj,yj).
				for x := minInt(ci.X, cj.X); x <= maxInt(ci.X, cj.X); x++ {
					mark(x, ci.Y)
				}
				for y := minInt(ci.Y, cj.Y); y <= maxInt(ci.Y, cj.Y); y++ {
					if y != ci.Y {
						mark(cj.X, y)
					}
				}
			}
		}
	}
	return count
}

// MaxWireCrossing returns max W over all grid cells (the left side of
// Eq. 3).
func MaxWireCrossing(n *topo.Network) int {
	max := 0
	for _, col := range wireCrossings(n) {
		for _, c := range col {
			if c > max {
				max = c
			}
		}
	}
	return max
}

// WiringConstraint holds the technology parameters of Eq. 3 (§3.3.2): the
// wiring density of one intermediate metal layer and the side length of a
// processing core, per technology node.
type WiringConstraint struct {
	Node       string
	WiresPerMM float64
	CoreSideMM float64
}

// WiringConstraints returns the paper's assumed technology points (§3.3.2):
// 3.5k/7k/14k wires/mm and 4/1/0.25 mm^2 cores at 45/22/11 nm.
func WiringConstraints() []WiringConstraint {
	return []WiringConstraint{
		{Node: "45nm", WiresPerMM: 3500, CoreSideMM: 2.0},
		{Node: "22nm", WiresPerMM: 7000, CoreSideMM: 1.0},
		{Node: "11nm", WiresPerMM: 14000, CoreSideMM: 0.5},
	}
}

// MaxWires returns W, the maximum number of wires that may cross one router
// tile under this constraint (wiring density times tile side).
func (w WiringConstraint) MaxWires() int {
	return int(w.WiresPerMM * w.CoreSideMM)
}

// DistanceDistribution returns the histogram of link Manhattan distances in
// 2-wide bins as in Fig. 6: bin i covers distances {2i+1, 2i+2}. Values are
// probabilities (they sum to 1 unless the network has no links).
func DistanceDistribution(n *topo.Network) []float64 {
	var counts []int
	links := 0
	for i := 0; i < n.Nr; i++ {
		for _, j := range n.Adj[i] {
			if j <= i {
				continue
			}
			d := topo.ManhattanDist(n.Coords[i], n.Coords[j])
			if d < 1 {
				d = 1
			}
			bin := (d - 1) / 2
			for len(counts) <= bin {
				counts = append(counts, 0)
			}
			counts[bin]++
			links++
		}
	}
	out := make([]float64, len(counts))
	if links == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(links)
	}
	return out
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
