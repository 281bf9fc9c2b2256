package topo

import (
	"fmt"
	"sort"
)

// routerNodes returns the node IDs attached to router r.
func (n *Network) routerNodes(r int) []int {
	if n.NodeMap != nil {
		var out []int
		for v, rr := range n.NodeMap {
			if rr == r {
				out = append(out, v)
			}
		}
		return out
	}
	out := make([]int, n.P)
	for i := range out {
		out[i] = r*n.P + i
	}
	return out
}

// links returns the number of undirected router-router links.
func (n *Network) links() int {
	total := 0
	for _, a := range n.Adj {
		total += len(a)
	}
	return total / 2
}

// connected reports whether routers i and j share a link.
func (n *Network) connected(i, j int) bool {
	a := n.Adj[i]
	k := sort.SearchInts(a, j)
	return k < len(a) && a[k] == j
}

// validate checks a network's structural invariants: symmetric sorted adjacency, no
// self-loops, no duplicate edges, coordinates (when present) matching Nr.
func (n *Network) validate() error {
	if len(n.Adj) != n.Nr {
		return fmt.Errorf("topo: %s: adjacency has %d rows, Nr=%d", n.Name, len(n.Adj), n.Nr)
	}
	if n.Coords != nil && len(n.Coords) != n.Nr {
		return fmt.Errorf("topo: %s: %d coords, Nr=%d", n.Name, len(n.Coords), n.Nr)
	}
	for i, a := range n.Adj {
		if !sort.IntsAreSorted(a) {
			return fmt.Errorf("topo: %s: adjacency of router %d not sorted", n.Name, i)
		}
		for k, j := range a {
			if j == i {
				return fmt.Errorf("topo: %s: self-loop at router %d", n.Name, i)
			}
			if j < 0 || j >= n.Nr {
				return fmt.Errorf("topo: %s: router %d links to out-of-range %d", n.Name, i, j)
			}
			if k > 0 && a[k-1] == j {
				return fmt.Errorf("topo: %s: duplicate edge %d-%d", n.Name, i, j)
			}
			if !n.connected(j, i) {
				return fmt.Errorf("topo: %s: edge %d->%d not symmetric", n.Name, i, j)
			}
		}
	}
	return nil
}

// minNetworkRadix returns the minimum router-router degree; for the regular
// networks in the paper it equals NetworkRadix.
func (n *Network) minNetworkRadix() int {
	m := n.NetworkRadix()
	for _, a := range n.Adj {
		m = min(m, len(a))
	}
	return m
}
