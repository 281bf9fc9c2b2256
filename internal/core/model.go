// Buffer-size and cost models of §3.2.2 and §3.2.3, as one buffer plan:
// the simulator (internal/sim) allocates a design's storage from it and the
// power model (internal/power) prices the same flits, so a run is priced as
// it was simulated.

package core

import "repro/internal/topo"

// Scheme is a router and link buffer organisation (§5.1, Fig. 11).
type Scheme uint8

// The buffer schemes the paper evaluates. The EB schemes are per-VC edge
// buffers with credit flow control; EL (ElastiStore, §4.2) keeps a 1-flit
// input latch per VC and stores in-flight flits in the link's pipeline
// registers; CBR (§4.1) adds one central buffer per router to EL.
const (
	EB      Scheme = iota // EB-Small: 5 flits per VC, or Buffers.EdgeCap
	EBLarge               // EB-Large: 15 flits per VC
	EBVar                 // EB-Var: the wire's round trip RTT(d) per VC, full utilisation (§3.2.2)
	EL
	CBR
)

// The paper's buffer sizes (§5.1), each written once: Buffers applies them.
const (
	ebSmallFlits = 5  // EB-Small per-VC edge buffer
	ebLargeFlits = 15 // EB-Large per-VC edge buffer
	cbFlits      = 20 // central buffer per router
)

// EdgeBuffers reports whether the scheme is credit-controlled edge buffers,
// whose wires store nothing; the other schemes run over elastic links.
func (s Scheme) EdgeBuffers() bool { return s <= EBVar }

// Buffers is a design's buffer plan: what sizes its router and link storage.
// The edge-buffer size equation δij = Tij·b·|VC|/L (§3.2.2) is EBVar at one
// flit per link cycle (b/L = 1, the paper's 128-bit links).
type Buffers struct {
	Scheme  Scheme
	VCs     int // |VC|: virtual channels per physical link
	H       int // grid hops a flit traverses per link cycle (1, or ~9 with SMART)
	EdgeCap int // per-VC edge-buffer override in flits (EB only; 0 = 5)
	CBCap   int // central-buffer flits per router (CBR only; 0 = 20)
}

// LinkCycles returns the latency in cycles of a wire of the given Manhattan
// length: ⌈dist/H⌉, and at least one.
func (b Buffers) LinkCycles(dist int) int {
	h := max(b.H, 1)
	return max((dist+h-1)/h, 1)
}

// RTT returns Tij in cycles for a wire of the given Manhattan length:
// 2⌈dist/H⌉ + 3 (two cycles of router processing plus one serialization
// cycle; §3.2.2).
func (b Buffers) RTT(dist int) int { return 2*b.LinkCycles(dist) + 3 }

// InputCap returns the per-VC input buffer in flits at the end of a wire of
// Manhattan length dist: an edge buffer, or the elastic schemes' latch.
func (b Buffers) InputCap(dist int) int {
	switch b.Scheme {
	case EB:
		if b.EdgeCap > 0 {
			return b.EdgeCap
		}
		return ebSmallFlits
	case EBLarge:
		return ebLargeFlits
	case EBVar:
		return b.RTT(dist)
	}
	return 1
}

// LatchCap returns the per-VC elastic pipeline slots of a wire: its
// LinkCycles register stages plus the slave latch at its end, the credit
// window an elastic sender starts with (0 under edge buffers).
func (b Buffers) LatchCap(dist int) int {
	if b.Scheme.EdgeBuffers() {
		return 0
	}
	return b.LinkCycles(dist) + 1
}

// CentralCap returns one router's central-buffer flits (0 unless CBR).
func (b Buffers) CentralCap() int {
	if b.Scheme != CBR {
		return 0
	}
	if b.CBCap > 0 {
		return b.CBCap
	}
	return cbFlits
}

// Flits returns the network's buffer storage in flits: every directed
// link's input buffers and elastic latches, VCs of each, plus every router's
// central buffer. Under EBVar it is Δeb (Eq. 5).
func (b Buffers) Flits(n *topo.Network) int {
	total := n.Nr * b.CentralCap()
	for i := 0; i < n.Nr; i++ {
		for _, j := range n.Adj[i] {
			d := WireLength(n, i, j)
			total += b.VCs * (b.InputCap(d) + b.LatchCap(d))
		}
	}
	return total
}

// Eq6Flits returns Δcb (Eq. 6), Nr·(cb + 2k'|VC|), which stages a flit per
// VC at every input and output port; a simulated CBR run holds Flits.
func (b Buffers) Eq6Flits(n *topo.Network) int {
	return n.Nr * (b.CentralCap() + 2*n.NetworkRadix()*b.VCs)
}

// WireLength returns the Manhattan length of the wire between routers a and
// c, at least one grid hop; 1 for a network without a layout.
func WireLength(n *topo.Network, a, c int) int {
	if n.Coords == nil {
		return 1
	}
	return max(topo.ManhattanDist(n.Coords[a], n.Coords[c]), 1)
}
