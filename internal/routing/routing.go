// Package routing computes the static routes used by the simulator. The
// paper evaluates static minimum routing computed with a shortest-path
// algorithm (§5.1) plus, for the §6 study, UGAL-style adaptive routing built
// from minimal and Valiant paths. Routes are source routes: a packet carries
// its full router path and a per-hop VC assignment chosen so that the
// network is deadlock-free (ascending VC classes for low-diameter networks,
// dimension order for meshes, datelines for tori).
//
// Static algorithms compile into one form, the RouteTable (table.go): every
// static route here is next-hop-consistent, so the table is one output-port
// byte per (current router, destination) pair, and the engine walks it per
// packet (AppendNextWords), applying the algorithm's VC rule on the way. That
// takes route construction out of the simulation hot path and lets campaigns
// share one immutable table across concurrent runs of the same (network,
// algorithm, VC count).
//
// NewTable is the one constructor. Deterministic minimal routing — what SN,
// Dragonfly and Clos use — fills the bytes from the word-parallel all-pairs
// sweep (compact.go: topo.Network.Sweep, 64 destinations per machine word,
// O(nr) scratch, no Paths matrix). The mesh, torus, FBF and PFBF builders
// (dor.go) fill them from their next-hop arithmetic, and their Route methods
// remain the reference the table's walks are tested against pair by pair.
package routing

import (
	"fmt"
	"math/bits"

	"repro/internal/rng"
	"repro/internal/topo"
)

// Paths holds all-pairs shortest-path state for one network.
type Paths struct {
	net  *topo.Network
	dist [][]int16
	next [][]int32 // deterministic minimal next hop (lowest-index tie-break)
}

// NewMinimal builds all-pairs shortest paths from the word-parallel sweep
// (topo.Network.Sweep). Ties are broken toward the lowest-numbered next hop,
// making routes deterministic as in the paper's Dijkstra-based setup.
// Unreachable pairs keep distance and next hop -1.
func NewMinimal(net *topo.Network) *Paths {
	nr := net.Nr
	p := &Paths{
		net:  net,
		dist: make([][]int16, nr),
		next: make([][]int32, nr),
	}
	for i := range p.dist {
		p.dist[i] = make([]int16, nr)
		p.next[i] = make([]int32, nr)
		for j := range p.dist[i] {
			p.dist[i][j], p.next[i][j] = -1, -1
		}
	}
	net.Sweep(func(base, _, level int, prev, cur []uint64) {
		for r, todo := range cur {
			if todo == 0 {
				continue
			}
			// Bit j of todo: r is level hops from destination base+j.
			dist, next := p.dist[r][base:], p.next[r][base:]
			for w := todo; w != 0; w &= w - 1 {
				dist[bits.TrailingZeros64(w)] = int16(level)
			}
			if level == 0 {
				continue
			}
			// The same positional tie-break CompileCompact records as a port
			// byte: the first neighbour in the sorted row that is one hop
			// closer, i.e. carries the destination's bit in prev.
			for _, v := range net.Adj[r] {
				for hit := prev[v] & todo; hit != 0; hit &= hit - 1 {
					next[bits.TrailingZeros64(hit)] = int32(v)
				}
				if todo &^= prev[v]; todo == 0 {
					break
				}
			}
		}
	})
	return p
}

// Dist returns the hop distance between routers a and b (-1 if unreachable).
func (p *Paths) Dist(a, b int) int { return int(p.dist[a][b]) }

// MinPath returns the deterministic minimal router path from src to dst,
// inclusive of both endpoints.
func (p *Paths) MinPath(src, dst int) []int {
	if p.dist[src][dst] < 0 {
		return nil
	}
	path := make([]int, 0, p.dist[src][dst]+1)
	cur := src
	path = append(path, cur)
	for cur != dst {
		cur = int(p.next[cur][dst])
		path = append(path, cur)
	}
	return path
}

// NextHops returns every neighbour of r on a minimal path to dst (used by
// adaptive schemes that pick among minimal ports).
func (p *Paths) NextHops(r, dst int) []int {
	if r == dst {
		return nil
	}
	var out []int
	for _, v := range p.net.Adj[r] {
		if p.dist[v][dst] == p.dist[r][dst]-1 {
			out = append(out, v)
		}
	}
	return out
}

// ValiantPath returns the concatenation of minimal paths src->mid->dst
// (without duplicating mid). If mid equals src or dst it degenerates to the
// minimal path.
func (p *Paths) ValiantPath(src, mid, dst int) []int {
	if mid == src || mid == dst {
		return p.MinPath(src, dst)
	}
	a := p.MinPath(src, mid)
	b := p.MinPath(mid, dst)
	if a == nil || b == nil {
		return nil
	}
	return append(a, b[1:]...)
}

// RandomIntermediate picks a Valiant intermediate router uniformly,
// excluding src and dst.
func (p *Paths) RandomIntermediate(rng *rng.Stream, src, dst int) int {
	nr := p.net.Nr
	if nr <= 2 {
		return src
	}
	for {
		mid := rng.Intn(nr)
		if mid != src && mid != dst {
			return mid
		}
	}
}

// PathValid reports whether consecutive routers in the path are adjacent.
func PathValid(net *topo.Network, path []int) bool {
	for i := 1; i < len(path); i++ {
		if !net.Connected(path[i-1], path[i]) {
			return false
		}
	}
	return true
}

// AscendingVCs returns the deadlock-free VC assignment used by the paper for
// SN (§4.3): VC0 on the first hop, VC1 on the second, capped at numVCs-1 for
// longer (e.g. Valiant) paths. With hop classes that never decrease, the
// channel dependency graph is acyclic provided path length <= numVCs; for
// longer paths the cap is safe only on topologies whose capped class is
// itself acyclic (diameter-2 networks and XY-ordered grids).
func AscendingVCs(hops, numVCs int) []int {
	out := make([]int, hops)
	for i := range out {
		vc := i
		if vc >= numVCs {
			vc = numVCs - 1
		}
		out[i] = vc
	}
	return out
}

// PathBuilder produces a router path and per-hop VCs for one packet.
type PathBuilder interface {
	// Route returns the router path (inclusive of src and dst routers) and
	// the VC used on each hop (len(path)-1 entries).
	Route(src, dst int) (path []int, vcs []int)
	// NumVCs returns how many VCs the builder's assignments require.
	NumVCs() int
}

// MinimalRouting is the default PathBuilder: deterministic minimal paths
// with ascending VCs. Suitable as-is for diameter-2 networks (SN, FBF) and
// any topology whose minimal deterministic routes are acyclic.
type MinimalRouting struct {
	P   *Paths
	VCs int
}

// Route implements PathBuilder. An unreachable pair has no route: both
// results are nil.
func (m *MinimalRouting) Route(src, dst int) ([]int, []int) {
	path := m.P.MinPath(src, dst)
	if path == nil {
		return nil, nil
	}
	return path, AscendingVCs(len(path)-1, m.VCs)
}

// NumVCs implements PathBuilder.
func (m *MinimalRouting) NumVCs() int { return m.VCs }

// NewRoutingFor picks the deadlock-free PathBuilder appropriate to a
// network constructed by this repository: DOR for meshes, dateline DOR for
// tori, XY for FBF/PFBF, and generic minimal+ascending-VC for everything
// else (SN, Clos, Dragonfly).
func NewRoutingFor(net *topo.Network, kind Kind, vcs int) (PathBuilder, error) {
	switch kind.Class {
	case ClassMesh:
		return NewDORMesh(net, kind.RX, kind.RY, vcs)
	case ClassTorus:
		return NewDORTorus(net, kind.RX, kind.RY, vcs)
	case ClassFBF:
		return NewXYFBF(net, kind.RX, kind.RY, vcs)
	case ClassPFBF:
		return NewXYPFBF(net, kind.PX, kind.PY, kind.RX, kind.RY, vcs)
	case ClassGeneric:
		return &MinimalRouting{P: NewMinimal(net), VCs: vcs}, nil
	}
	return nil, fmt.Errorf("routing: unknown topology class %v", kind.Class)
}

// Class enumerates topology families that need dedicated deadlock-free
// routing.
type Class int

// Topology classes understood by NewRoutingFor.
const (
	ClassGeneric Class = iota
	ClassMesh
	ClassTorus
	ClassFBF
	ClassPFBF
)

// Kind names the topology family and its grid parameters, as needed to
// derive dimension-ordered routes from router indices.
type Kind struct {
	Class  Class
	RX, RY int // router grid (or per-partition grid for PFBF)
	PX, PY int // partition grid (PFBF only)
}
