// Buffer-size and cost models of §3.2.2 and §3.2.3.

package core

import "repro/internal/topo"

// BufferModel captures the parameters of the edge-buffer size equation
// δij = Tij * b * |VC| / L (§3.2.2). FlitsPerCycle is b/L: the number of
// flits one link delivers per cycle (1 for the paper's 128-bit links).
type BufferModel struct {
	VCs           int     // |VC|: virtual channels per physical link
	FlitsPerCycle float64 // b / L
	H             int     // grid hops traversed per link cycle (1, or ~9 with SMART)
}

// DefaultBufferModel matches the paper's evaluation setup: 2 VCs, one flit
// per cycle, no SMART.
func DefaultBufferModel() BufferModel {
	return BufferModel{VCs: 2, FlitsPerCycle: 1, H: 1}
}

// WithSMART returns a copy of the model with SMART links enabled at the
// paper's H = 9 (45 nm, 1 GHz; §5.1).
func (m BufferModel) WithSMART() BufferModel {
	m.H = 9
	return m
}

// RTT returns Tij in cycles for a wire of the given Manhattan length:
// 2*ceil(dist/H) + 3 (two cycles of router processing plus one serialization
// cycle; §3.2.2).
func (m BufferModel) RTT(dist int) int {
	h := m.H
	if h < 1 {
		h = 1
	}
	return 2*((dist+h-1)/h) + 3
}

// EdgeBufferFlits returns δij for a single edge buffer on a wire of the
// given Manhattan length, rounded up to whole flits.
func (m BufferModel) EdgeBufferFlits(dist int) int {
	size := float64(m.RTT(dist)) * m.FlitsPerCycle * float64(m.VCs)
	return int(size + 0.999999)
}

// TotalEdgeBuffers returns Δeb (Eq. 5): the sum of δij over all directed
// links, i.e. over every input buffer in the network.
func (m BufferModel) TotalEdgeBuffers(n *topo.Network) int {
	total := 0
	for i := 0; i < n.Nr; i++ {
		for _, j := range n.Adj[i] {
			total += m.EdgeBufferFlits(topo.ManhattanDist(n.Coords[i], n.Coords[j]))
		}
	}
	return total
}

// PerRouterEdgeBuffers returns Δeb / Nr, the average per-router buffer space
// plotted in Fig. 5b-c.
func (m BufferModel) PerRouterEdgeBuffers(n *topo.Network) float64 {
	return float64(m.TotalEdgeBuffers(n)) / float64(n.Nr)
}

// TotalCentralBuffers returns Δcb (Eq. 6) for central-buffer routers with a
// CB of cbFlits plus per-VC I/O staging (2 k' |VC| per router).
func (m BufferModel) TotalCentralBuffers(n *topo.Network, cbFlits int) int {
	return n.Nr * (cbFlits + 2*n.NetworkRadix()*m.VCs)
}

// PerRouterCentralBuffers returns Δcb / Nr.
func (m BufferModel) PerRouterCentralBuffers(n *topo.Network, cbFlits int) float64 {
	return float64(m.TotalCentralBuffers(n, cbFlits)) / float64(n.Nr)
}
