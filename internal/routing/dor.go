// Dimension-ordered routing for meshes, tori (with dateline VCs) and the
// XY-phase routing used by flattened butterflies and their partitioned
// variant. Each builder's next is the per-(current router, destination) step
// the route table is filled from; compileGrid rejects a next hop that is not
// a link, so a mismatch with the topology constructors fails loudly. The
// tests hold the table's walks, pair by pair, against whole-path reference
// routes (dor_route_test.go).

package routing

import "repro/internal/topo"

// dorMesh routes XY on an rx x ry mesh with row-major router indices.
type dorMesh struct {
	net    *topo.Network
	rx, ry int
	vcs    int
}

func (d *dorMesh) compile() (*RouteTable, error) {
	return compileGrid(d.net, Kind{Class: ClassMesh, RX: d.rx, RY: d.ry}, d.vcs, d.next)
}

func (d *dorMesh) next(cur, dst int) int {
	x, y := cur%d.rx, cur/d.rx
	dx, dy := dst%d.rx, dst/d.rx
	if x != dx {
		return y*d.rx + x + sign(dx-x)
	}
	return (y+sign(dy-y))*d.rx + x
}

// dorTorus routes XY on a torus, taking the ring direction with the fewest
// hops. Each dimension has its own dateline (wrap link): when a dimension's
// segment crosses it, every hop of that segment — before the crossing as
// well as after — uses VC 1, and the other segments use VC 0. On a 3x5
// torus, 3->12 routes [3 0 12] with VCs [1 1].
type dorTorus struct {
	net    *topo.Network
	rx, ry int
	vcs    int
}

func (d *dorTorus) compile() (*RouteTable, error) {
	return compileGrid(d.net, Kind{Class: ClassTorus, RX: d.rx, RY: d.ry}, d.vcs, d.next)
}

func (d *dorTorus) next(cur, dst int) int {
	x, y := cur%d.rx, cur/d.rx
	dx, dy := dst%d.rx, dst/d.rx
	if x != dx {
		return y*d.rx + ringStep(x, dx, d.rx)
	}
	return ringStep(y, dy, d.ry)*d.rx + x
}

// ringStep is the first move from cur toward target on a ring of n, in
// the shortest direction (positive wins ties).
func ringStep(cur, target, n int) int {
	if fwd := ((target-cur)%n + n) % n; n-fwd < fwd {
		return (cur - 1 + n) % n
	}
	return (cur + 1) % n
}

// ringWraps reports whether the shortest-direction segment from cur to
// target on a ring of n crosses the wrap link between n-1 and 0. On a
// two-router ring every move does: its one link joins 0 and n-1.
//
//sim:hot
func ringWraps(cur, target, n int) bool {
	fwd := ((target-cur)%n + n) % n
	switch {
	case fwd == 0:
		return false
	case n == 2:
		return true
	case n-fwd < fwd: // backward: wraps going below 0
		return target > cur
	default: // forward: wraps going past n-1
		return target < cur
	}
}

// xyFBF routes row-first on a flattened butterfly: one hop to the
// destination column, one hop to the destination row.
type xyFBF struct {
	net    *topo.Network
	cx, cy int
	vcs    int
}

func (d *xyFBF) compile() (*RouteTable, error) {
	return compileGrid(d.net, Kind{Class: ClassFBF, RX: d.cx, RY: d.cy}, d.vcs, d.next)
}

func (d *xyFBF) next(cur, dst int) int {
	if x, dx := cur%d.cx, dst%d.cx; x != dx {
		return cur - x + dx
	}
	return dst
}

// xyPFBF routes the partitioned FBF hierarchically: X phase (local column
// adjust, then partition crossing), then Y phase (local row adjust, then
// partition crossing). VC class 0 covers the X phase and 1 the Y phase,
// which keeps the dependency graph acyclic.
type xyPFBF struct {
	net            *topo.Network
	px, py, sx, sy int
	vcs            int
}

func (d *xyPFBF) id(gx, gy, lx, ly int) int {
	return ((gy*d.px+gx)*d.sy+ly)*d.sx + lx
}

func (d *xyPFBF) split(r int) (gx, gy, lx, ly int) {
	lx = r % d.sx
	r /= d.sx
	ly = r % d.sy
	r /= d.sy
	gx = r % d.px
	gy = r / d.px
	return
}

func (d *xyPFBF) compile() (*RouteTable, error) {
	return compileGrid(d.net, Kind{Class: ClassPFBF, RX: d.sx, RY: d.sy, PX: d.px, PY: d.py}, d.vcs, d.next)
}

func (d *xyPFBF) next(cur, dst int) int {
	gx, gy, lx, ly := d.split(cur)
	tgx, _, tlx, tly := d.split(dst)
	switch {
	case lx != tlx:
		return d.id(gx, gy, tlx, ly)
	case gx != tgx:
		return d.id((gx+1)%d.px, gy, lx, ly)
	case ly != tly:
		return d.id(gx, gy, lx, tly)
	}
	return d.id(gx, (gy+1)%d.py, lx, ly)
}

func sign(x int) int {
	if x > 0 {
		return 1
	}
	if x < 0 {
		return -1
	}
	return 0
}
