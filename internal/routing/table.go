// Compiled route tables. Every static route this package builds is
// next-hop-consistent — the path from src is src followed by the path from
// its next hop — so a RouteTable is one output-port byte per (current router,
// destination) pair plus a per-class VC rule. A route is the table, its
// destination and at most one waypoint: Next computes each hop's word from
// (current router, target, hop) when the hop is taken, and nothing per
// packet is stored. The table borrows the network's adjacency for its walks
// and is immutable once built, so one table may back any number of
// concurrent simulations — the campaign engine builds one per distinct
// (network, routing, VCs) combination and reuses it for every point.
//
// The VC rules (pinned pair by pair against the grid builders' reference
// routes by the oracle tests):
//   - ascending, min(hop, vcs-1): generic minimal routing (SN, Dragonfly,
//     Clos, damaged networks, the adaptive policies' routes) and FBF XY;
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
// VC rule. at holds the routers' grid coordinates for the torus rule (x, y)
// and the PFBF rule (column, partition column), which Next reads on every
// hop instead of dividing router indices; nil for the other classes.
type RouteTable struct {
	nr   int
	vcs  int
	kind Kind
	cnh  []uint8
	adj  [][]int
	at   [][2]int32
}

// cnhNone marks the pairs with no next hop, src == dst. Compilation caps
// the radix at 254 so the sentinel can never be a real port.
const cnhNone = 0xff

// NextEject is the next-hop word of a path's final hop: the router visit is
// an ejection, not a traversal. Real encodings never collide with it (or
// with any sentinel down to NextEject-255: ports are at most 254 and slots
// at most 254*63+62, so a real word is at most 0x00fe3efe).
const NextEject = ^uint32(0)

// nextWord encodes one hop's switch-allocation decision: the output port in
// bits 16..23 (for output-conflict masking) and the port*vcs+vc slot offset
// in bits 0..15 (the per-VC output index relative to the router's block in
// the simulator's flattened state).
func nextWord(port, vc, vcs int) uint32 {
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
// a network of the given kind.
func NewTable(net *topo.Network, kind Kind, vcs int) (*RouteTable, error) {
	pb, err := NewRoutingFor(net, kind, vcs)
	if err != nil {
		return nil, err
	}
	return Compile(net.Nr, pb)
}

// Compile builds the route table of a PathBuilder for an nr-router network:
// the all-pairs sweep for generic minimal routing, the next-hop arithmetic
// for the grid builders.
func Compile(nr int, pb PathBuilder) (*RouteTable, error) {
	t, err := pb.compile()
	if err == nil && t.nr != nr {
		err = fmt.Errorf("routing: Compile: builder routes %d routers, caller expects %d", t.nr, nr)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// compileGrid fills a table from a dimension-ordered builder's next-hop
// arithmetic: next returns the router after cur on the route to dst
// (cur != dst), a function of those two alone. A next router that is not a
// neighbour of the current one — a Kind that does not describe the network —
// is an error, caught without any per-pair search: the neighbours' ports are
// staged in a scratch row per router.
func compileGrid(net *topo.Network, kind Kind, vcs int, next func(cur, dst int) int) (*RouteTable, error) {
	routers := kind.RX * kind.RY
	if kind.Class == ClassPFBF {
		routers *= kind.PX * kind.PY
	}
	if routers != net.Nr {
		return nil, fmt.Errorf("routing: %v grid of %d routers does not describe a %d-router network", kind, routers, net.Nr)
	}
	t, err := newTable(net, kind, vcs)
	if err != nil {
		return nil, err
	}
	nr := net.Nr
	if kind.Class == ClassTorus || kind.Class == ClassPFBF {
		t.at = make([][2]int32, nr)
		for r := range t.at {
			t.at[r] = [2]int32{int32(r % kind.RX), int32(r / kind.RX)}
			if kind.Class == ClassPFBF {
				t.at[r][1] = int32(r / (kind.RX * kind.RY) % kind.PX)
			}
		}
	}
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
			nxt := next(cur, dst)
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

// CompilePorts checks that adj is the adjacency the table walks — the same
// slice, not an equal copy. The bytes are ports into those rows, so a table
// compiled for another network (even one with the same router count) would
// route over links adj does not have; sim.New refuses such a table with
// this check.
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
// pair (a torus or PFBF table's coordinates add a negligible 8 bytes per
// router). Memory-budget enforcement (sim.Config.MemBudgetBytes) uses it
// to account a shared table against a run's budget.
func (t *RouteTable) MemBytes() int64 { return int64(len(t.cnh)) }

// Port returns the output port at cur toward dst (cur != dst), the port of
// Next's word, for the hop-th hop of a walk that reads only ports (Hops,
// AppendPath, UGAL's pricing).
func (t *RouteTable) Port(cur, dst, hop int) int {
	if hop >= t.nr {
		panic("routing: next-hop walk does not terminate (corrupt table or mutated adjacency)")
	}
	return int(t.cnh[cur*t.nr+dst])
}

// Next returns the next-hop word of hop hop of the src->dst route at router
// cur, NextEject when cur == dst: the table's port at cur toward dst and the
// VC its class rule gives hop hop of a route from src. The word is a
// function of those four alone, so the engine computes it at send time
// instead of storing a route per packet; a waypoint route calls it toward
// the waypoint first and toward the destination after, the hop count
// running on across the switch.
func (t *RouteTable) Next(src, cur, dst, hop int) uint32 {
	if cur == dst {
		return NextEject
	}
	var vc int
	switch t.kind.Class {
	case ClassGeneric, ClassFBF:
		vc = min(hop, t.vcs-1)
	case ClassMesh:
		vc = hop % t.vcs
	default: // torus, PFBF
		xHops, xVC, yVC := t.phases(src, dst)
		vc = yVC
		if hop < xHops {
			vc = xVC
		}
	}
	return nextWord(int(t.cnh[cur*t.nr+dst]), vc, t.vcs)
}

// phases splits a two-phase route (torus, PFBF) into its leading X hops and
// the rest, returning the X hop count and the VC of each phase.
func (t *RouteTable) phases(src, dst int) (xHops, xVC, yVC int) {
	k, s, d := t.kind, t.at[src], t.at[dst]
	x, dx := int(s[0]), int(d[0])
	if k.Class == ClassTorus {
		// Each dimension has its own dateline: a segment that crosses the
		// wrap link rides VC 1 for all of its hops. The Y segment starts from
		// src's row, which the X phase does not change.
		fwd := (dx - x + k.RX) % k.RX
		return min(fwd, k.RX-fwd), b2i(ringWraps(x, dx, k.RX)), b2i(ringWraps(int(s[1]), int(d[1]), k.RY))
	}
	// PFBF: the local column hop, then the partition ring steps, on VC 0.
	return (int(d[1])-int(s[1])+k.PX)%k.PX + b2i(x != dx), 0, 1
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Hops returns the hop count of the src->dst route: the distance, on the
// minimal tables adaptive policies read.
func (t *RouteTable) Hops(src, dst int) int {
	hops := 0
	for cur := src; cur != dst; hops++ {
		cur = t.adj[cur][t.Port(cur, dst, hops)]
	}
	return hops
}

// AppendPath appends the src->dst router path (both endpoints included) to
// buf and returns it, for callers that want the routers a route visits.
func (t *RouteTable) AppendPath(buf []int, src, dst int) []int {
	buf = append(buf, src)
	for cur, hop := src, 0; cur != dst; hop++ {
		cur = t.adj[cur][t.Port(cur, dst, hop)]
		buf = append(buf, cur)
	}
	return buf
}
