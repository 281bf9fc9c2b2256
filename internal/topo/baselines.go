// Baseline topologies from §5.1 (Table 4) and §2.2 of the paper.

package topo

import (
	"fmt"
	"math"
)

// CycleTime constants from §5.1: router clock cycle times that account for
// the different crossbar sizes of each topology class.
const (
	CycleTimeSN       = 0.5 // ns, Slim NoC and PFBF
	cycleTimeLowRadix = 0.4 // ns, T2D and CM
	cycleTimeHighFBF  = 0.6 // ns, full-bandwidth FBF
)

// Mesh2D builds an rx × ry 2D mesh with concentration p (a concentrated
// mesh, the paper's CM, when p > 1). Routers are indexed row-major;
// router (x,y) has grid coordinates (x+1, y+1).
func Mesh2D(rx, ry, p int) *Network {
	n := &Network{
		Name:        fmt.Sprintf("cm_%dx%d_p%d", rx, ry, p),
		Nr:          rx * ry,
		P:           p,
		CycleTimeNs: cycleTimeLowRadix,
	}
	es := newEdgeSet(n.Nr)
	id := func(x, y int) int { return y*rx + x }
	n.Coords = make([]Coord, n.Nr)
	for y := 0; y < ry; y++ {
		for x := 0; x < rx; x++ {
			n.Coords[id(x, y)] = Coord{x + 1, y + 1}
			if x+1 < rx {
				es.add(id(x, y), id(x+1, y))
			}
			if y+1 < ry {
				es.add(id(x, y), id(x, y+1))
			}
		}
	}
	n.Adj = es.lists()
	return n
}

// foldedPos maps ring index k in a ring of n to its physical position in the
// standard folded-torus placement, so that every ring neighbour pair is at
// most 2 grid hops apart.
func foldedPos(k, n int) int {
	half := (n + 1) / 2
	if k < half {
		return 2 * k
	}
	return 2*(n-1-k) + 1
}

// Torus2D builds an rx × ry 2D torus (the paper's T2D) with concentration p.
// The placement uses the folded layout, so wrap-around links are at most two
// grid hops long.
func Torus2D(rx, ry, p int) *Network {
	n := &Network{
		Name:        fmt.Sprintf("t2d_%dx%d_p%d", rx, ry, p),
		Nr:          rx * ry,
		P:           p,
		CycleTimeNs: cycleTimeLowRadix,
	}
	es := newEdgeSet(n.Nr)
	id := func(x, y int) int { return y*rx + x }
	n.Coords = make([]Coord, n.Nr)
	for y := 0; y < ry; y++ {
		for x := 0; x < rx; x++ {
			n.Coords[id(x, y)] = Coord{foldedPos(x, rx) + 1, foldedPos(y, ry) + 1}
			es.add(id(x, y), id((x+1)%rx, y))
			es.add(id(x, y), id(x, (y+1)%ry))
		}
	}
	n.Adj = es.lists()
	return n
}

// FBF builds a full-bandwidth flattened butterfly: routers on a cx × cy grid
// where every router connects to all routers in its row and all routers in
// its column (diameter 2).
func FBF(cx, cy, p int) *Network {
	n := &Network{
		Name:        fmt.Sprintf("fbf_%dx%d_p%d", cx, cy, p),
		Nr:          cx * cy,
		P:           p,
		CycleTimeNs: cycleTimeHighFBF,
	}
	es := newEdgeSet(n.Nr)
	id := func(x, y int) int { return y*cx + x }
	n.Coords = make([]Coord, n.Nr)
	for y := 0; y < cy; y++ {
		for x := 0; x < cx; x++ {
			n.Coords[id(x, y)] = Coord{x + 1, y + 1}
			for x2 := x + 1; x2 < cx; x2++ {
				es.add(id(x, y), id(x2, y))
			}
			for y2 := y + 1; y2 < cy; y2++ {
				es.add(id(x, y), id(x, y2))
			}
		}
	}
	n.Adj = es.lists()
	return n
}

// PFBF builds the paper's partitioned flattened butterfly (§5.1, Fig. 9): a
// px × py grid of identical sx × sy FBFs. Adjacent partitions are connected
// by one link per router per partitioned dimension, attached at the
// corresponding local position, which matches SN's radix and bisection
// bandwidth while raising the diameter to 4.
func PFBF(px, py, sx, sy, p int) *Network {
	n := &Network{
		Name:        fmt.Sprintf("pfbf_%dx%d_of_%dx%d_p%d", px, py, sx, sy, p),
		Nr:          px * py * sx * sy,
		P:           p,
		CycleTimeNs: CycleTimeSN,
	}
	es := newEdgeSet(n.Nr)
	// Global coordinates: partition (gx,gy), local (lx,ly).
	id := func(gx, gy, lx, ly int) int {
		return ((gy*px+gx)*sy+ly)*sx + lx
	}
	n.Coords = make([]Coord, n.Nr)
	for gy := 0; gy < py; gy++ {
		for gx := 0; gx < px; gx++ {
			for ly := 0; ly < sy; ly++ {
				for lx := 0; lx < sx; lx++ {
					r := id(gx, gy, lx, ly)
					n.Coords[r] = Coord{gx*sx + lx + 1, gy*sy + ly + 1}
					// Intra-partition FBF links.
					for lx2 := lx + 1; lx2 < sx; lx2++ {
						es.add(r, id(gx, gy, lx2, ly))
					}
					for ly2 := ly + 1; ly2 < sy; ly2++ {
						es.add(r, id(gx, gy, lx, ly2))
					}
					// Inter-partition links: one per dimension to the
					// neighbouring partition, same local position.
					if px > 1 {
						ngx := gx + 1
						if ngx == px {
							ngx = 0
						}
						if ngx != gx {
							es.add(r, id(ngx, gy, lx, ly))
						}
					}
					if py > 1 {
						ngy := gy + 1
						if ngy == py {
							ngy = 0
						}
						if ngy != gy {
							es.add(r, id(gx, ngy, lx, ly))
						}
					}
				}
			}
		}
	}
	n.Adj = es.lists()
	return n
}

// Dragonfly builds a Dragonfly (§2.1, Fig. 2a): g groups of a fully
// connected routers, each router with h global channels; groups form a
// fully connected graph with one link per group pair. g must be at most
// a*h + 1. Groups are placed as near-square blocks on a near-square grid.
func Dragonfly(a, h, g, p int) (*Network, error) {
	if g > a*h+1 {
		return nil, fmt.Errorf("topo: dragonfly needs g <= a*h+1, got a=%d h=%d g=%d", a, h, g)
	}
	n := &Network{
		Name:        fmt.Sprintf("df_a%d_h%d_g%d_p%d", a, h, g, p),
		Nr:          a * g,
		P:           p,
		CycleTimeNs: CycleTimeSN,
	}
	es := newEdgeSet(n.Nr)
	for grp := 0; grp < g; grp++ {
		for r := 0; r < a; r++ {
			// Intra-group: full connectivity.
			for r2 := r + 1; r2 < a; r2++ {
				es.add(grp*a+r, grp*a+r2)
			}
			// Global links: slot s = r*h..r*h+h-1 connects to the group at
			// offset s+1 (consistent because the reverse offset lands in a
			// well-defined slot on the peer side).
			for s := r * h; s < (r+1)*h; s++ {
				peer := (grp + s + 1) % g
				if s+1 <= g-1 && peer != grp {
					es.add(grp*a+r, peer*a+globalRouter(grp, peer, g, h))
				}
			}
		}
	}
	// Placement: groups on a near-square grid of near-square blocks.
	gcols := int(math.Ceil(math.Sqrt(float64(g))))
	bw := int(math.Ceil(math.Sqrt(float64(a))))
	bh := (a + bw - 1) / bw
	n.Coords = make([]Coord, n.Nr)
	for grp := 0; grp < g; grp++ {
		gx, gy := grp%gcols, grp/gcols
		for r := 0; r < a; r++ {
			n.Coords[grp*a+r] = Coord{gx*bw + r%bw + 1, gy*bh + r/bw + 1}
		}
	}
	n.Adj = es.lists()
	return n, nil
}

// globalRouter returns the router index within group "to" that owns the
// global-link slot for the pair (from, to).
func globalRouter(from, to, g, h int) int {
	off := ((from-to-1)%g + g) % g
	return off / h
}

// FoldedClos builds a two-level folded Clos (fat tree): leaves leaf routers
// each with p attached nodes, spines spine routers, and a link between every
// leaf and every spine. Spine routers concentrate no nodes; the network uses
// an explicit node map. This is the hierarchical/indirect baseline of §5.5.
func FoldedClos(leaves, spines, p int) *Network {
	n := &Network{
		Name:        fmt.Sprintf("clos_%dx%d_p%d", leaves, spines, p),
		Nr:          leaves + spines,
		P:           p,
		CycleTimeNs: CycleTimeSN,
	}
	es := newEdgeSet(n.Nr)
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			es.add(l, leaves+s)
		}
	}
	n.Adj = es.lists()
	// Node map: nodes live only on leaves.
	n.NodeMap = make([]int, leaves*p)
	for v := range n.NodeMap {
		n.NodeMap[v] = v / p
	}
	// Placement: leaves in a near-square grid, spines in a center row.
	lcols := int(math.Ceil(math.Sqrt(float64(leaves))))
	n.Coords = make([]Coord, n.Nr)
	for l := 0; l < leaves; l++ {
		n.Coords[l] = Coord{l%lcols + 1, l/lcols + 1}
	}
	lrows := (leaves + lcols - 1) / lcols
	for s := 0; s < spines; s++ {
		n.Coords[leaves+s] = Coord{s%lcols + 1, lrows + 1 + s/lcols}
	}
	return n
}
