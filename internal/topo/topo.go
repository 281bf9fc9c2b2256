// Package topo defines the router-graph abstraction shared by every network
// in the reproduction, together with the baseline topologies the paper
// compares against (§5.1, Table 4): 2D torus (T2D), concentrated mesh (CM),
// flattened butterfly (FBF), partitioned flattened butterfly (PFBF),
// Dragonfly (DF), and a folded Clos (§5.5). The Slim NoC topology itself is
// built in internal/core on top of this package.
package topo

import (
	"math/bits"
	"sort"
	"sync"
)

// Coord is a router position on the 2D placement grid (1-indexed like the
// paper's placement model in §3.2.1).
type Coord struct {
	X, Y int
}

// ManhattanDist returns the Manhattan distance |x1-x2| + |y1-y2|.
func ManhattanDist(a, b Coord) int {
	return absInt(a.X-b.X) + absInt(a.Y-b.Y)
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Network is a direct network: Nr routers, each concentrating P nodes.
// Nodes are numbered 0..N-1; node v attaches to router v/P. Adjacency lists
// are sorted and symmetric. Coords give the placement used for wire-length
// and buffer-size models; they may be nil for networks analysed only
// abstractly.
type Network struct {
	Name   string
	Nr     int
	P      int
	Adj    [][]int
	Coords []Coord

	// NodeMap optionally maps node -> router for indirect networks whose
	// routers concentrate unequal node counts (e.g. folded Clos, where
	// spines attach none). When nil, node v attaches to router v/P.
	NodeMap []int

	// CycleTimeNs is the router clock cycle time used by the paper to
	// account for crossbar size differences (§5.1): 0.5 ns for SN and
	// PFBF, 0.4 ns for T2D and CM, 0.6 ns for FBF.
	CycleTimeNs float64

	// Memoized Diameter (see there). Unexported, so a Network assembled
	// field by field — RemoveRandomLinks' damaged copy, say — starts with
	// its own empty memo rather than inheriting the original's.
	diamOnce sync.Once
	diam     int
}

// N returns the number of attached nodes.
func (n *Network) N() int {
	if n.NodeMap != nil {
		return len(n.NodeMap)
	}
	return n.Nr * n.P
}

// NodeRouter returns the router that node v attaches to.
func (n *Network) NodeRouter(v int) int {
	if n.NodeMap != nil {
		return n.NodeMap[v]
	}
	return v / n.P
}

// NetworkRadix returns k', the maximum number of router-router channels at
// any router.
func (n *Network) NetworkRadix() int {
	max := 0
	for _, a := range n.Adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// RouterRadix returns k = k' + p.
func (n *Network) RouterRadix() int { return n.NetworkRadix() + n.P }

// BFS fills dist (length Nr) with the hop distance from src to every router,
// -1 where unreachable, and returns the routers reached in visit order
// (nondecreasing distance, src first). queue is scratch the caller keeps
// across calls: the walk indexes a head into it instead of re-slicing, so a
// queue of capacity Nr is never reallocated however many sources are swept.
// The result aliases queue. This is the single-source search (components,
// one unreachable pair); anything over all pairs runs on Sweep.
func (n *Network) BFS(src int, dist, queue []int32) []int32 {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		d := dist[u] + 1
		for _, v := range n.Adj[u] {
			if dist[v] < 0 {
				dist[v] = d
				queue = append(queue, int32(v))
			}
		}
	}
	return queue
}

// Sweep is the all-pairs breadth-first search: it runs a BFS from every
// router, 64 sources at a time, one source per bit of a machine word. Sources
// are batched in index order — batch base covers sources base..base+k-1,
// k = 64 except for a shorter last batch — and each batch advances all of its
// searches one level per pass over the adjacency:
//
//	cur[r] = (OR of prev[v] over v in Adj[r]) &^ seen[r]
//
// so a diameter-2 network is done in two passes per 64 sources instead of 64
// queue walks. visit is called once per batch and non-empty level, levels
// ascending from 0: bit j of cur[r] is set exactly when router r is at
// distance level from source base+j, and prev is the previous level's
// frontier in the same encoding (nil at level 0). Adjacency is symmetric, so
// the same bit also says r is level hops from reaching base+j, and a
// neighbour v of r with the bit set in prev is one step closer to it. Both
// slices are scratch the sweep reuses (three Nr-word arrays for the whole
// run) and are only valid during the call.
//
// Sweep reports whether the network is connected. A disconnected network is
// swept to the end all the same: unreachable pairs simply never appear in a
// frontier.
func (n *Network) Sweep(visit func(base, k, level int, prev, cur []uint64)) (connected bool) {
	nr := n.Nr
	scratch := make([]uint64, 3*nr)
	prev, cur, seen := scratch[:nr], scratch[nr:2*nr], scratch[2*nr:]
	connected = true
	for base := 0; base < nr; base += 64 {
		k := min(64, nr-base)
		full := ^uint64(0) >> (64 - k) // the tail batch owns only its low k bits
		clear(cur)
		clear(seen)
		for j := 0; j < k; j++ {
			cur[base+j] = 1 << j
			seen[base+j] = 1 << j
		}
		visit(base, k, 0, nil, cur)
		for level := 1; ; level++ {
			prev, cur = cur, prev
			reached, all := uint64(0), full
			for r, adj := range n.Adj {
				s := seen[r]
				if s == full {
					cur[r] = 0
					continue
				}
				var front uint64
				for _, v := range adj {
					front |= prev[v]
				}
				front &^= s
				cur[r] = front
				seen[r] = s | front
				reached |= front
				all &= s | front
			}
			if reached == 0 {
				connected = connected && all == full
				break
			}
			visit(base, k, level, prev, cur)
			if all == full {
				break
			}
		}
	}
	return connected
}

// Diameter returns the maximum over all router pairs of the shortest-path
// hop count (-1 if the network is disconnected). The all-pairs sweep runs
// once per Network and is memoized: every later call, from any goroutine,
// returns the first answer. That is sound under the read-only sharing
// contract the facade already imposes (see slimnoc.WithNetwork) — a network
// must not be mutated once it has been handed to anything that may ask for
// its diameter.
func (n *Network) Diameter() int {
	n.diamOnce.Do(func() { n.diam = n.diameter() })
	return n.diam
}

func (n *Network) diameter() int {
	diam := 0
	if !n.Sweep(func(_, _, level int, _, _ []uint64) { diam = max(diam, level) }) {
		return -1
	}
	return diam
}

// AvgShortestPath returns the mean router-router shortest path length over
// all ordered pairs of distinct, mutually reachable routers.
func (n *Network) AvgShortestPath() float64 {
	total, pairs := 0, 0
	n.Sweep(func(_, _, level int, _, cur []uint64) {
		if level == 0 {
			return
		}
		at := 0
		for _, w := range cur {
			at += bits.OnesCount64(w)
		}
		total += level * at
		pairs += at
	})
	if pairs == 0 {
		return 0
	}
	return float64(total) / float64(pairs)
}

// AvgWireLength returns M (Eq. 4): the mean Manhattan distance between
// connected routers, using the network's coordinates.
func (n *Network) AvgWireLength() float64 {
	if n.Coords == nil {
		return 0
	}
	total, links := 0, 0
	for i := 0; i < n.Nr; i++ {
		for _, j := range n.Adj[i] {
			if j > i {
				total += ManhattanDist(n.Coords[i], n.Coords[j])
				links++
			}
		}
	}
	if links == 0 {
		return 0
	}
	return float64(total) / float64(links)
}

// TotalWireLength returns the sum of Manhattan wire lengths over all links,
// in grid hops.
func (n *Network) TotalWireLength() int {
	total := 0
	for i := 0; i < n.Nr; i++ {
		for _, j := range n.Adj[i] {
			if j > i {
				total += ManhattanDist(n.Coords[i], n.Coords[j])
			}
		}
	}
	return total
}

// GridDims returns the extent (maxX, maxY) of the placement grid.
func (n *Network) GridDims() (int, int) {
	mx, my := 0, 0
	for _, c := range n.Coords {
		if c.X > mx {
			mx = c.X
		}
		if c.Y > my {
			my = c.Y
		}
	}
	return mx, my
}

// edgeSet accumulates undirected edges and produces sorted adjacency lists.
type edgeSet struct {
	nr  int
	adj []map[int]bool
}

func newEdgeSet(nr int) *edgeSet {
	e := &edgeSet{nr: nr, adj: make([]map[int]bool, nr)}
	for i := range e.adj {
		e.adj[i] = make(map[int]bool)
	}
	return e
}

func (e *edgeSet) add(i, j int) {
	if i == j {
		return
	}
	e.adj[i][j] = true
	e.adj[j][i] = true
}

func (e *edgeSet) lists() [][]int {
	out := make([][]int, e.nr)
	for i, m := range e.adj {
		l := make([]int, 0, len(m))
		for j := range m {
			l = append(l, j)
		}
		sort.Ints(l)
		out[i] = l
	}
	return out
}
