package routing

// The grid builders' reference form: Route assembles a whole path and its
// VCs the long way, independently of the next-hop arithmetic the tables are
// filled from, so the oracle tests can hold every table walk against it.

// router is a grid builder's reference route.
type router interface {
	// Route returns the router path (inclusive of src and dst) and the VC
	// used on each hop (len(path)-1 entries).
	Route(src, dst int) (path []int, vcs []int)
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
	vcs := make([]int, len(path)-1)
	for i := range vcs {
		vcs[i] = min(i, d.vcs-1)
	}
	return path, vcs
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
