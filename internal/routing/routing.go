// Package routing computes the routes used by the simulator. The paper
// evaluates static minimum routing computed with a shortest-path algorithm
// (§5.1) plus, for the §6 study, UGAL-style adaptive routing built from
// minimal and Valiant paths. Each hop of a route is one next-hop word,
// naming the output port and the VC, with VCs assigned so that the network
// is deadlock-free (ascending VC classes for low-diameter networks,
// dimension order for meshes, datelines for tori).
//
// Routes come from one form, the RouteTable (table.go): every route here is
// next-hop-consistent, so the table is one output-port byte per (current
// router, destination) pair, and a route is the table, its destination and
// at most one waypoint. The engine asks the table for each hop's word when
// the hop is taken (Next), which applies the algorithm's VC rule; nothing
// per packet is stored. Adaptive policies read the generic minimal table:
// a Valiant route heads for a random intermediate and then for the
// destination, its VC classes ascending across the switch, and UGAL prices
// its candidates by walking the table without storing them. That
// takes route construction out of the simulation hot path and lets
// campaigns share one immutable table across concurrent runs of the same
// (network, algorithm, VC count).
//
// NewTable is the one constructor: it compiles the PathBuilder
// NewRoutingFor picks, and every run's static table comes through it.
// Deterministic minimal routing — what SN, Dragonfly and Clos use — fills
// the bytes from the word-parallel all-pairs sweep (compact.go:
// topo.Network.Sweep, 64 destinations per machine word, O(nr) scratch). The
// mesh, torus, FBF and PFBF builders (dor.go) fill them from their next-hop
// arithmetic. The tests check the generic bytes against a scalar BFS per
// destination, and the grid tables against whole-path reference routes kept
// in dor_route_test.go.
package routing

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/topo"
)

// RandomIntermediate picks a Valiant intermediate among nr routers
// uniformly, excluding src and dst. With no router to pick (nr <= 2) it
// returns src without drawing.
func RandomIntermediate(rng *rng.Stream, nr, src, dst int) int {
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

// PathBuilder is a static routing algorithm bound to one network: the
// compile input Compile turns into a RouteTable. NewRoutingFor is its only
// constructor.
type PathBuilder interface {
	// compile builds the algorithm's route table.
	compile() (*RouteTable, error)
}

// minimal is generic deterministic minimal routing with ascending VCs — what
// SN, Dragonfly and Clos use — compiled by the all-pairs sweep
// (CompileCompact).
type minimal struct {
	net *topo.Network
	vcs int
}

func (m minimal) compile() (*RouteTable, error) { return CompileCompact(m.net, m.vcs) }

// NewRoutingFor picks the deadlock-free routing appropriate to a network
// constructed by this repository: DOR for meshes, dateline DOR for tori
// (at least 2 VCs), XY for FBF, hierarchical XY for PFBF (at least 2 VCs),
// and generic minimal routing with ascending VCs for everything else (SN,
// Clos, Dragonfly).
func NewRoutingFor(net *topo.Network, kind Kind, vcs int) (PathBuilder, error) {
	switch kind.Class {
	case ClassMesh:
		return &dorMesh{net: net, rx: kind.RX, ry: kind.RY, vcs: vcs}, nil
	case ClassTorus:
		if vcs < 2 {
			return nil, fmt.Errorf("routing: torus dateline routing needs >= 2 VCs, got %d", vcs)
		}
		return &dorTorus{net: net, rx: kind.RX, ry: kind.RY, vcs: vcs}, nil
	case ClassFBF:
		return &xyFBF{net: net, cx: kind.RX, cy: kind.RY, vcs: vcs}, nil
	case ClassPFBF:
		if vcs < 2 {
			return nil, fmt.Errorf("routing: pfbf routing needs >= 2 VCs, got %d", vcs)
		}
		return &xyPFBF{net: net, px: kind.PX, py: kind.PY, sx: kind.RX, sy: kind.RY, vcs: vcs}, nil
	case ClassGeneric:
		return minimal{net: net, vcs: vcs}, nil
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
