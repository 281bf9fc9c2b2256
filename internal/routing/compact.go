// The generic table fill: deterministic minimal routing (what SN, Dragonfly
// and Clos use) compiled from the all-pairs sweep. Minimal routes with a
// per-(router, destination) tie-break are next-hop-consistent by
// construction, so the table's one byte per pair is the whole route, and the
// ascending VC rule is applied while walking it.
//
// CompileCompact fills the bytes from topo.Network.Sweep, the word-parallel
// all-pairs BFS: 64 destinations advance one level per pass over the
// adjacency, and each router reads its next hop toward all of them off its
// neighbours' frontier words. Scratch is O(nr); no all-pairs distance
// matrix is materialised.

package routing

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/topo"
)

// CompileCompact builds the route table of deterministic minimal routing
// with ascending VCs, one byte per (src,dst) pair. The adjacency is retained
// (not copied) and must not be mutated afterwards — the same immutability
// contract WithNetwork already demands.
//
// The next hop is the deterministic tie-break: the first adjacency
// position (rows are sorted, so the lowest-index neighbour) one step closer
// to the destination. Being positional, it cannot depend on how the sweep
// batches destinations or orders bits. A disconnected network is an error
// naming the first unreachable pair — no table can route it.
func CompileCompact(net *topo.Network, vcs int) (*RouteTable, error) {
	t, err := newTable(net, Kind{Class: ClassGeneric}, vcs)
	if err != nil {
		return nil, err
	}
	nr := net.Nr
	connected := net.Sweep(func(base, k, level int, prev, cur []uint64) {
		if level == 0 {
			for dst := base; dst < base+k; dst++ {
				t.cnh[dst*nr+dst] = cnhNone
			}
			return
		}
		for r, todo := range cur {
			if todo == 0 {
				continue
			}
			// Bit j of todo: r is level hops from destination base+j, and a
			// neighbour carrying the bit in prev is one hop closer.
			row := t.cnh[r*nr+base : r*nr+base+k]
			for pos, v := range net.Adj[r] {
				for hit := prev[v] & todo; hit != 0; hit &= hit - 1 {
					row[bits.TrailingZeros64(hit)] = uint8(pos)
				}
				if todo &^= prev[v]; todo == 0 {
					break
				}
			}
		}
	})
	if !connected {
		return nil, checkConnected(net)
	}
	return t, nil
}

// checkConnected returns nil for a connected network, and otherwise the
// error every route construction (static tables, the table an adaptive run
// walks) reports for it: adjacency is symmetric, so router 0 already comes up short, and the
// lowest router it misses is the first unreachable pair in row-major order.
func checkConnected(net *topo.Network) error {
	if net.Nr == 0 {
		return nil
	}
	dist := make([]int32, net.Nr)
	net.BFS(0, dist, nil)
	if dst := slices.IndexFunc(dist, func(d int32) bool { return d < 0 }); dst >= 0 {
		return fmt.Errorf("routing: no route 0->%d: the network is disconnected", dst)
	}
	return nil
}
