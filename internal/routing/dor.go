// Dimension-ordered routing for meshes, tori (with dateline VCs) and the
// XY-phase routing used by flattened butterflies and their partitioned
// variant. Each builder has two faces: Route, the reference that assembles a
// whole path and its VCs, and next, the per-(current router, destination)
// step the route table is filled from. The oracle tests hold the table's
// walks against Route for every pair; compileGrid rejects a next hop that is
// not a link, so a mismatch with the topology constructors fails loudly.

package routing

import (
	"fmt"

	"repro/internal/topo"
)

// dorMesh routes XY on an rx x ry mesh with row-major router indices.
type dorMesh struct {
	net    *topo.Network
	rx, ry int
	vcs    int
}

// NewDORMesh builds XY dimension-order routing for a mesh built by
// topo.Mesh2D. XY routing on a mesh is deadlock-free with any VC count.
func NewDORMesh(net *topo.Network, rx, ry, vcs int) (PathBuilder, error) {
	return &dorMesh{net: net, rx: rx, ry: ry, vcs: vcs}, nil
}

func (d *dorMesh) Route(src, dst int) ([]int, []int) {
	x, y := src%d.rx, src/d.rx
	dx, dy := dst%d.rx, dst/d.rx
	path := []int{src}
	for x != dx {
		x += sign(dx - x)
		path = append(path, y*d.rx+x)
	}
	for y != dy {
		y += sign(dy - y)
		path = append(path, y*d.rx+x)
	}
	// XY on a mesh is acyclic; spread hops across VCs round-robin.
	vcs := make([]int, len(path)-1)
	for i := range vcs {
		vcs[i] = i % d.vcs
	}
	return path, vcs
}

func (d *dorMesh) NumVCs() int { return d.vcs }

func (d *dorMesh) grid() (*topo.Network, Kind) {
	return d.net, Kind{Class: ClassMesh, RX: d.rx, RY: d.ry}
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

// NewDORTorus builds dateline XY routing for a torus built by topo.Torus2D.
// It requires at least 2 VCs.
func NewDORTorus(net *topo.Network, rx, ry, vcs int) (PathBuilder, error) {
	if vcs < 2 {
		return nil, fmt.Errorf("routing: torus dateline routing needs >= 2 VCs, got %d", vcs)
	}
	return &dorTorus{net: net, rx: rx, ry: ry, vcs: vcs}, nil
}

func (d *dorTorus) Route(src, dst int) ([]int, []int) {
	x, y := src%d.rx, src/d.rx
	dx, dy := dst%d.rx, dst/d.rx
	path := []int{src}
	var wrapped []bool // per hop: have we crossed a dateline yet
	crossed := false
	move := func(cur, target, n int) []int {
		// Shortest ring direction; positive wins ties.
		var steps []int
		fwd := ((target-cur)%n + n) % n
		bwd := n - fwd
		dir := 1
		count := fwd
		if bwd < fwd {
			dir = -1
			count = bwd
		}
		for i := 0; i < count; i++ {
			next := ((cur+dir)%n + n) % n
			if (cur == n-1 && next == 0) || (cur == 0 && next == n-1) {
				crossed = true
			}
			cur = next
			steps = append(steps, cur)
		}
		return steps
	}
	for _, nx := range move(x, dx, d.rx) {
		x = nx
		path = append(path, y*d.rx+x)
		wrapped = append(wrapped, crossed)
	}
	// X and Y channels are disjoint resources, so each dimension has its own
	// dateline; reset the crossing flag for the Y phase.
	crossed = false
	for _, ny := range move(y, dy, d.ry) {
		y = ny
		path = append(path, y*d.rx+x)
		wrapped = append(wrapped, crossed)
	}
	vcs := make([]int, len(path)-1)
	for i := range vcs {
		if wrapped[i] {
			vcs[i] = 1
		}
	}
	return path, vcs
}

func (d *dorTorus) NumVCs() int { return d.vcs }

func (d *dorTorus) grid() (*topo.Network, Kind) {
	return d.net, Kind{Class: ClassTorus, RX: d.rx, RY: d.ry}
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
// Route's shortest direction (positive wins ties).
func ringStep(cur, target, n int) int {
	if fwd := ((target-cur)%n + n) % n; n-fwd < fwd {
		return (cur - 1 + n) % n
	}
	return (cur + 1) % n
}

// ringWraps reports whether Route's shortest-direction segment from cur to
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

// NewXYFBF builds XY routing for an FBF built by topo.FBF.
func NewXYFBF(net *topo.Network, cx, cy, vcs int) (PathBuilder, error) {
	return &xyFBF{net: net, cx: cx, cy: cy, vcs: vcs}, nil
}

func (d *xyFBF) Route(src, dst int) ([]int, []int) {
	x, y := src%d.cx, src/d.cx
	dx, dy := dst%d.cx, dst/d.cx
	path := []int{src}
	if x != dx {
		path = append(path, y*d.cx+dx)
	}
	if y != dy {
		path = append(path, dy*d.cx+dx)
	}
	return path, AscendingVCs(len(path)-1, d.vcs)
}

func (d *xyFBF) NumVCs() int { return d.vcs }

func (d *xyFBF) grid() (*topo.Network, Kind) {
	return d.net, Kind{Class: ClassFBF, RX: d.cx, RY: d.cy}
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

// NewXYPFBF builds hierarchical XY routing for a PFBF built by topo.PFBF.
// It requires at least 2 VCs.
func NewXYPFBF(net *topo.Network, px, py, sx, sy, vcs int) (PathBuilder, error) {
	if vcs < 2 {
		return nil, fmt.Errorf("routing: pfbf routing needs >= 2 VCs, got %d", vcs)
	}
	return &xyPFBF{net: net, px: px, py: py, sx: sx, sy: sy, vcs: vcs}, nil
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

func (d *xyPFBF) Route(src, dst int) ([]int, []int) {
	gx, gy, lx, ly := d.split(src)
	tgx, tgy, tlx, tly := d.split(dst)
	path := []int{src}
	var phases []int // 0 for X phase hops, 1 for Y phase hops
	// X phase: local column, then ring of partitions along X.
	if lx != tlx {
		lx = tlx
		path = append(path, d.id(gx, gy, lx, ly))
		phases = append(phases, 0)
	}
	for gx != tgx {
		gx = (gx + 1) % d.px
		path = append(path, d.id(gx, gy, lx, ly))
		phases = append(phases, 0)
	}
	// Y phase.
	if ly != tly {
		ly = tly
		path = append(path, d.id(gx, gy, lx, ly))
		phases = append(phases, 1)
	}
	for gy != tgy {
		gy = (gy + 1) % d.py
		path = append(path, d.id(gx, gy, lx, ly))
		phases = append(phases, 1)
	}
	vcs := make([]int, len(path)-1)
	copy(vcs, phases)
	return path, vcs
}

func (d *xyPFBF) NumVCs() int { return d.vcs }

func (d *xyPFBF) grid() (*topo.Network, Kind) {
	return d.net, Kind{Class: ClassPFBF, RX: d.sx, RY: d.sy, PX: d.px, PY: d.py}
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
