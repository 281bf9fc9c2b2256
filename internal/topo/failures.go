// Link-failure injection. The paper attributes high resilience to Slim
// Fly's expander structure (§2.1); this file provides the machinery to
// verify that claim: remove a random fraction of links and re-examine
// connectivity, diameter and path-length inflation.

package topo

import (
	"fmt"
	"math/rand"
)

// RemoveRandomLinks returns a copy of the network with approximately the
// given fraction of undirected router-router links removed, chosen uniformly
// with the given seed. Coordinates, concentration and cycle time are
// preserved; the result may be disconnected (check Diameter() == -1).
func (n *Network) RemoveRandomLinks(fraction float64, seed int64) *Network {
	type edge struct{ a, b int }
	var edges []edge
	for i := 0; i < n.Nr; i++ {
		for _, j := range n.Adj[i] {
			if j > i {
				edges = append(edges, edge{i, j})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	drop := int(fraction * float64(len(edges)))
	if drop > len(edges) {
		drop = len(edges)
	}
	removed := make(map[[2]int]bool, drop)
	for _, e := range edges[:drop] {
		removed[[2]int{e.a, e.b}] = true
	}
	out := &Network{
		Name:        fmt.Sprintf("%s_fail%.0f%%", n.Name, fraction*100),
		Nr:          n.Nr,
		P:           n.P,
		CycleTimeNs: n.CycleTimeNs,
	}
	if n.Coords != nil {
		out.Coords = append([]Coord(nil), n.Coords...)
	}
	if n.NodeMap != nil {
		out.NodeMap = append([]int(nil), n.NodeMap...)
	}
	out.Adj = make([][]int, n.Nr)
	for i := 0; i < n.Nr; i++ {
		for _, j := range n.Adj[i] {
			a, b := i, j
			if a > b {
				a, b = b, a
			}
			if removed[[2]int{a, b}] {
				continue
			}
			out.Adj[i] = append(out.Adj[i], j)
		}
	}
	return out
}

// Connectivity returns the fraction of ordered router pairs that can still
// reach each other (1.0 for a connected network).
func (n *Network) Connectivity() float64 {
	if n.Nr == 0 {
		return 0
	}
	// One BFS per component: the routers a sweep reaches all reach each other.
	seen := make([]bool, n.Nr)
	dist := make([]int32, n.Nr)
	queue := make([]int32, 0, n.Nr)
	reachable := 0
	for s := 0; s < n.Nr; s++ {
		if seen[s] {
			continue
		}
		comp := n.BFS(s, dist, queue)
		for _, v := range comp {
			seen[v] = true
		}
		reachable += len(comp) * (len(comp) - 1)
	}
	total := n.Nr * (n.Nr - 1)
	if total == 0 {
		return 1
	}
	return float64(reachable) / float64(total)
}
