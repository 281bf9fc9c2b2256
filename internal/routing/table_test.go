package routing

import (
	"testing"

	"repro/internal/topo"
)

// TestCompileMatchesBuilder verifies a table compiled from a grid builder
// walks the builder's reference routes and VCs exactly for every pair, and
// that CompilePorts accepts only the adjacency a table was compiled over
// (TestCompactMatchesDense holds the generic builder's table to the sweep).
func TestCompileMatchesBuilder(t *testing.T) {
	fbf := topo.FBF(4, 4, 1)
	for name, tc := range map[string]struct {
		net  *topo.Network
		kind Kind
		vcs  int
	}{
		"dor-mesh":  {topo.Mesh2D(4, 4, 1), Kind{Class: ClassMesh, RX: 4, RY: 4}, 2},
		"dor-torus": {topo.Torus2D(4, 4, 1), Kind{Class: ClassTorus, RX: 4, RY: 4}, 2},
		"minimal":   {fbf, Kind{Class: ClassGeneric}, 3},
	} {
		t.Run(name, func(t *testing.T) {
			pb, err := NewRoutingFor(tc.net, tc.kind, tc.vcs)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := Compile(tc.net.Nr, pb)
			if err != nil {
				t.Fatal(err)
			}
			if r, ok := pb.(router); ok {
				checkTableMatchesBuilder(t, tab, tc.net, r)
			}
			if err := tab.CompilePorts(tc.net.Adj); err != nil {
				t.Errorf("CompilePorts on the table's own adjacency: %v", err)
			}
			if err := tab.CompilePorts(topo.FBF(4, 4, 1).Adj); err == nil {
				t.Error("CompilePorts accepted another network's adjacency")
			}
		})
	}
}

// TestAppendPathHelpers pins the walks adaptive policies and the estimator
// read off a table against one BFS per source: Hops is the distance,
// AppendPath a path of that many links, and a route through a Valiant
// waypoint visits the two minimal paths' routers with the VC classes
// ascending across the switch.
func TestAppendPathHelpers(t *testing.T) {
	net := topo.FBF(4, 4, 1)
	const vcs = 3
	tab, err := NewTable(net, Kind{Class: ClassGeneric}, vcs)
	if err != nil {
		t.Fatal(err)
	}
	var words []uint32
	dist := make([]int32, net.Nr)
	for src := 0; src < net.Nr; src++ {
		net.BFS(src, dist, nil)
		for dst := 0; dst < net.Nr; dst++ {
			if got, want := tab.Hops(src, dst), int(dist[dst]); got != want {
				t.Fatalf("Hops(%d, %d) = %d, want %d", src, dst, got, want)
			}
			if path := tab.AppendPath(nil, src, dst); len(path) != int(dist[dst])+1 || !pathValid(net, path) || path[len(path)-1] != dst {
				t.Fatalf("AppendPath(%d, %d) = %v, want a %d-hop path", src, dst, path, dist[dst])
			}
			for _, mid := range []int{5, 10} {
				words = walkWords(tab, words[:0], src, dst, mid, tab.Hops(src, mid))
				path := append(tab.AppendPath(nil, src, mid), tab.AppendPath(nil, mid, dst)[1:]...)
				if len(words) != len(path) || words[len(words)-1] != NextEject {
					t.Fatalf("%d->%d->%d: words %#x for path %v", src, mid, dst, words, path)
				}
				for i, w := range words[:len(words)-1] {
					port := int(w >> 16)
					if want := nextWord(port, min(i, vcs-1), vcs); w != want || net.Adj[path[i]][port] != path[i+1] {
						t.Fatalf("%d->%d->%d hop %d: word %#x, want %#x toward %d on path %v", src, mid, dst, i, w, want, path[i+1], path)
					}
				}
			}
		}
	}
}
