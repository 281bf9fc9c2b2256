// Compiled route tables. Every static route this package builds is
// next-hop-consistent — the path from src is src followed by the path from
// its next hop — so a RouteTable is one output-port byte per (current router,
// destination) pair plus a per-class VC rule applied while walking the bytes.
// The table borrows the network's adjacency for the walk and is immutable
// once built, so one table may back any number of concurrent simulations —
// the campaign engine builds one per distinct (network, routing, VCs)
// combination and reuses it for every point.
//
// The VC rules reproduce the builders' assignments exactly (pinned pair by
// pair against each builder's Route by the oracle tests):
//   - ascending, min(hop, vcs-1): generic minimal routing (SN, Dragonfly,
//     Clos, damaged networks) and FBF XY;
//   - mesh XY: hop % vcs;
//   - torus DOR: every hop of a dimension whose shortest-direction segment
//     crosses the wrap link rides VC 1, the others VC 0;
//   - PFBF: VC 0 while the X phase (local column, then partition ring) is
//     pending, VC 1 for the Y phase.

package routing

import (
	"fmt"

	"repro/internal/topo"
)

// RouteTable is the compiled form of a static routing algorithm on one
// network: cnh[cur*nr+dst] is the output port at cur toward dst (cnhNone
// when cur == dst), walked through the borrowed adjacency. kind selects the
// VC rule.
type RouteTable struct {
	nr   int
	vcs  int
	kind Kind
	cnh  []uint8
	adj  [][]int
}

// cnhNone marks the pairs with no next hop, src == dst. Compilation caps
// the radix at 254 so the sentinel can never be a real port.
const cnhNone = 0xff

// NextEject is the next-hop word of a path's final hop: the router visit is
// an ejection, not a traversal. Real encodings never collide with it (or
// with any sentinel down to NextEject-255: ports are at most 254 and slots
// at most 254*63+62, so a real word is at most 0x00fe3efe).
const NextEject = ^uint32(0)

// NextWord encodes one hop's switch-allocation decision: the output port in
// bits 16..23 (for output-conflict masking) and the port*vcs+vc slot offset
// in bits 0..15 (the per-VC output index relative to the router's block in
// the simulator's flattened state).
//
//sim:hot
func NextWord(port, vc, vcs int) uint32 {
	return uint32(port)<<16 | uint32(port*vcs+vc)
}

// newTable allocates an nr x nr table over the network's adjacency, after
// checking what the byte encoding needs: at least one VC and no router
// radix above 254.
func newTable(net *topo.Network, kind Kind, vcs int) (*RouteTable, error) {
	if vcs < 1 {
		return nil, fmt.Errorf("routing: a route table needs vcs >= 1, got %d", vcs)
	}
	for r := 0; r < net.Nr; r++ {
		if len(net.Adj[r]) > 254 {
			return nil, fmt.Errorf("routing: router %d radix %d exceeds the route table's 254-port limit", r, len(net.Adj[r]))
		}
	}
	return &RouteTable{nr: net.Nr, vcs: vcs, kind: kind, cnh: make([]uint8, net.Nr*net.Nr), adj: net.Adj}, nil
}

// NewTable compiles the deadlock-free static routes NewRoutingFor picks for
// a network of the given kind. Generic networks get the word-parallel sweep
// (CompileCompact); the four grid classes fill the bytes from their
// builder's next-hop arithmetic, with no sweep and no per-pair Route call.
func NewTable(net *topo.Network, kind Kind, vcs int) (*RouteTable, error) {
	if kind.Class == ClassGeneric {
		return CompileCompact(net, vcs)
	}
	pb, err := NewRoutingFor(net, kind, vcs)
	if err != nil {
		return nil, err
	}
	return Compile(net.Nr, pb)
}

// Compile builds the route table of a builder from this package for an
// nr-router network: the sweep for MinimalRouting, the next-hop arithmetic
// for the grid builders. Builders defined elsewhere have no next-hop form
// the table can derive, and are an error.
func Compile(nr int, pb PathBuilder) (*RouteTable, error) {
	var t *RouteTable
	var err error
	switch b := pb.(type) {
	case *MinimalRouting:
		t, err = CompileCompact(b.P.net, b.VCs)
	case gridBuilder:
		t, err = compileGrid(b)
	default:
		return nil, fmt.Errorf("routing: Compile: %T is not a builder of this package, so its routes have no next-hop table", pb)
	}
	if err == nil && t.nr != nr {
		err = fmt.Errorf("routing: Compile: builder routes %d routers, caller expects %d", t.nr, nr)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// gridBuilder is a dimension-ordered builder whose next router depends only
// on (current router, destination).
type gridBuilder interface {
	PathBuilder
	// grid returns the network the builder routes and its geometry.
	grid() (*topo.Network, Kind)
	// next returns the router after cur on the route to dst (cur != dst).
	next(cur, dst int) int
}

// compileGrid fills a table from a grid builder's next-hop arithmetic. A
// next router that is not a neighbour of the current one — a Kind that does
// not describe the network — is an error, caught without any per-pair
// search: the neighbours' ports are staged in a scratch row per router.
func compileGrid(b gridBuilder) (*RouteTable, error) {
	net, kind := b.grid()
	routers := kind.RX * kind.RY
	if kind.Class == ClassPFBF {
		routers *= kind.PX * kind.PY
	}
	if routers != net.Nr {
		return nil, fmt.Errorf("routing: %v grid of %d routers does not describe a %d-router network", kind, routers, net.Nr)
	}
	t, err := newTable(net, kind, b.NumVCs())
	if err != nil {
		return nil, err
	}
	nr := net.Nr
	port := make([]uint8, nr)
	for i := range port {
		port[i] = cnhNone
	}
	for cur := 0; cur < nr; cur++ {
		for p, v := range net.Adj[cur] {
			port[v] = uint8(p)
		}
		row := t.cnh[cur*nr : (cur+1)*nr]
		for dst := range row {
			if dst == cur {
				row[dst] = cnhNone
				continue
			}
			nxt := b.next(cur, dst)
			if row[dst] = port[nxt]; row[dst] == cnhNone {
				return nil, fmt.Errorf("routing: %v route %d->%d steps from %d to non-neighbour %d", kind, cur, dst, cur, nxt)
			}
		}
		for _, v := range net.Adj[cur] {
			port[v] = cnhNone
		}
	}
	return t, nil
}

// CompilePorts is kept for callers that bake ports into a freshly compiled
// table: the bytes already are the ports, so it only checks that adj is the
// adjacency the table walks.
func (t *RouteTable) CompilePorts(adj [][]int) error {
	if len(adj) != len(t.adj) || (len(adj) > 0 && &adj[0] != &t.adj[0]) {
		return fmt.Errorf("routing: CompilePorts: adjacency is not the network the table was compiled for")
	}
	return nil
}

// NumVCs returns the VC count the table's routes are assigned over.
func (t *RouteTable) NumVCs() int { return t.vcs }

// Nr returns the router count the table was compiled for.
func (t *RouteTable) Nr() int { return t.nr }

// MemBytes returns the table's resident footprint, one byte per router
// pair. Memory-budget enforcement (sim.Config.MemBudgetBytes) uses it to
// account a shared table against a run's budget.
func (t *RouteTable) MemBytes() int64 { return int64(len(t.cnh)) }

// port returns the output port at cur toward dst, for the hop-th hop of a
// walk.
//
//sim:hot
func (t *RouteTable) port(cur, dst, hop int) uint8 {
	if hop >= t.nr {
		panic("routing: next-hop walk does not terminate (corrupt table or mutated adjacency)")
	}
	return t.cnh[cur*t.nr+dst]
}

// AppendNextWords appends the NextEject-terminated next-hop words of the
// src->dst route to next and returns it — all the simulator reads of a route
// once a packet is queued (the hop count is len - 1). The VC rule is picked
// once per route. Allocation-free once the buffer has reached its
// high-water capacity. src == dst appends the lone NextEject.
//
//sim:hot
func (t *RouteTable) AppendNextWords(next []uint32, src, dst int) []uint32 {
	switch t.kind.Class {
	case ClassGeneric, ClassFBF:
		next = t.AppendAscending(next, src, dst, 0)
	case ClassMesh:
		for cur, hop := src, 0; cur != dst; hop++ {
			p := t.port(cur, dst, hop)
			next = append(next, NextWord(int(p), hop%t.vcs, t.vcs))
			cur = t.adj[cur][p]
		}
	default: // torus, PFBF
		xHops, xVC, yVC := t.phases(src, dst)
		for cur, hop := src, 0; cur != dst; hop++ {
			vc := yVC
			if hop < xHops {
				vc = xVC
			}
			p := t.port(cur, dst, hop)
			next = append(next, NextWord(int(p), vc, t.vcs))
			cur = t.adj[cur][p]
		}
	}
	next = append(next, NextEject)
	return next
}

// phases splits a two-phase route (torus, PFBF) into its leading X hops and
// the rest, returning the X hop count and the VC of each phase.
//
//sim:hot
func (t *RouteTable) phases(src, dst int) (xHops, xVC, yVC int) {
	k := t.kind
	if k.Class == ClassTorus {
		// Each dimension has its own dateline: a segment that crosses the
		// wrap link rides VC 1 for all of its hops. The Y segment starts from
		// src's row, which the X phase does not change.
		x, dx := src%k.RX, dst%k.RX
		fwd := ((dx-x)%k.RX + k.RX) % k.RX
		return min(fwd, k.RX-fwd), b2i(ringWraps(x, dx, k.RX)), b2i(ringWraps(src/k.RX, dst/k.RX, k.RY))
	}
	// PFBF: the local column hop, then the partition ring steps, on VC 0.
	part := k.RX * k.RY
	xHops = (dst/part%k.PX - src/part%k.PX + k.PX) % k.PX
	if src%k.RX != dst%k.RX {
		xHops++
	}
	return xHops, 0, 1
}

//sim:hot
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// AppendAscending appends the next-hop words of the src->dst route under
// the ascending VC rule, counting the route's first hop as hop number hop,
// and returns next. It appends no NextEject, so a caller may join segments:
// a Valiant route's second segment starts at the first segment's hop count
// and so continues its VC classes. The walk reads the table's bytes
// whatever its kind; adaptive policies walk a generic table.
//
//sim:hot
func (t *RouteTable) AppendAscending(next []uint32, src, dst, hop int) []uint32 {
	for cur, step := src, 0; cur != dst; step++ {
		p := t.port(cur, dst, step)
		next = append(next, NextWord(int(p), min(hop+step, t.vcs-1), t.vcs))
		cur = t.adj[cur][p]
	}
	return next
}

// Hops returns the hop count of the src->dst route: the distance, on the
// minimal tables adaptive policies read.
//
//sim:hot
func (t *RouteTable) Hops(src, dst int) int {
	hops := 0
	for cur := src; cur != dst; hops++ {
		cur = t.adj[cur][t.port(cur, dst, hops)]
	}
	return hops
}

// AppendPath appends the src->dst router path (both endpoints included) to
// buf and returns it, for callers that want the routers a route visits.
func (t *RouteTable) AppendPath(buf []int, src, dst int) []int {
	buf = append(buf, src)
	for cur, hop := src, 0; cur != dst; hop++ {
		cur = t.adj[cur][t.port(cur, dst, hop)]
		buf = append(buf, cur)
	}
	return buf
}
