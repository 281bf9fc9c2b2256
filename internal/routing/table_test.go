package routing

import (
	"slices"
	"testing"

	"repro/internal/topo"
)

// tableBuilders returns representative PathBuilders over small networks.
func tableBuilders(t *testing.T) map[string]struct {
	net *topo.Network
	pb  PathBuilder
} {
	t.Helper()
	mesh := topo.Mesh2D(4, 4, 1)
	dorMesh, err := NewDORMesh(mesh, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	torus := topo.Torus2D(4, 4, 1)
	dorTorus, err := NewDORTorus(torus, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	fbf := topo.FBF(4, 4, 1)
	minimal := &MinimalRouting{P: NewMinimal(fbf), VCs: 3}
	return map[string]struct {
		net *topo.Network
		pb  PathBuilder
	}{
		"dor-mesh":  {mesh, dorMesh},
		"dor-torus": {torus, dorTorus},
		"minimal":   {fbf, minimal},
	}
}

// TestCompileMatchesBuilder verifies a table compiled from a builder walks
// the builder's routes and VCs exactly for every pair.
func TestCompileMatchesBuilder(t *testing.T) {
	for name, tc := range tableBuilders(t) {
		t.Run(name, func(t *testing.T) {
			tab, err := Compile(tc.net.Nr, tc.pb)
			if err != nil {
				t.Fatal(err)
			}
			checkTableMatchesBuilder(t, tab, tc.net, tc.pb)
			if err := tab.CompilePorts(tc.net.Adj); err != nil {
				t.Errorf("CompilePorts on the table's own adjacency: %v", err)
			}
			if err := tab.CompilePorts(topo.FBF(4, 4, 1).Adj); err == nil {
				t.Error("CompilePorts accepted another network's adjacency")
			}
		})
	}
	if _, err := Compile(16, foreignBuilder{}); err == nil {
		t.Error("Compile accepted a builder from outside the package")
	}
}

// foreignBuilder stands for a PathBuilder defined outside this package.
type foreignBuilder struct{}

func (foreignBuilder) Route(src, dst int) ([]int, []int) { return []int{src, dst}, []int{0} }
func (foreignBuilder) NumVCs() int                       { return 1 }

// TestAppendPathHelpers pins the walks adaptive policies and the estimator
// read off a table against Paths: AppendPath is MinPath, Hops is Dist, and
// AppendAscending words joined at a Valiant intermediate visit the two
// minimal paths' routers with the VC classes ascending across the join.
func TestAppendPathHelpers(t *testing.T) {
	net := topo.FBF(4, 4, 1)
	p := NewMinimal(net)
	const vcs = 3
	tab, err := Compile(net.Nr, &MinimalRouting{P: p, VCs: vcs})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 8)
	buf = tab.AppendPath(buf[:0], 0, 15)
	if want := p.MinPath(0, 15); !slices.Equal(buf, want) {
		t.Fatalf("AppendPath %v, want %v", buf, want)
	}
	var words []uint32
	for src := 0; src < net.Nr; src++ {
		for dst := 0; dst < net.Nr; dst++ {
			if got, want := tab.Hops(src, dst), p.Dist(src, dst); got != want {
				t.Fatalf("Hops(%d, %d) = %d, want %d", src, dst, got, want)
			}
			for _, mid := range []int{5, 10} {
				words = tab.AppendAscending(words[:0], src, mid, 0)
				words = tab.AppendAscending(words, mid, dst, len(words))
				path := append(p.MinPath(src, mid), p.MinPath(mid, dst)[1:]...)
				vcsWant := AscendingVCs(len(path)-1, vcs)
				if len(words) != len(path)-1 {
					t.Fatalf("%d->%d->%d: %d words for path %v", src, mid, dst, len(words), path)
				}
				for i, w := range words {
					port := int(w >> 16)
					if want := NextWord(port, vcsWant[i], vcs); w != want || net.Adj[path[i]][port] != path[i+1] {
						t.Fatalf("%d->%d->%d hop %d: word %#x, want %#x toward %d on path %v", src, mid, dst, i, w, want, path[i+1], path)
					}
				}
			}
		}
	}
}
