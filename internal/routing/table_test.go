package routing

import (
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

func TestAppendPathHelpers(t *testing.T) {
	net := topo.FBF(4, 4, 1)
	p := NewMinimal(net)
	tab, err := Compile(net.Nr, &MinimalRouting{P: p, VCs: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 8)
	buf = tab.AppendPath(buf[:0], 0, 15)
	want := p.MinPath(0, 15)
	if len(buf) != len(want) {
		t.Fatalf("AppendPath %v, want %v", buf, want)
	}
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatalf("AppendPath %v, want %v", buf, want)
		}
	}
	// Valiant-style concatenation: src->mid then tail of mid->dst equals
	// Paths.ValiantPath.
	val := tab.AppendPath(nil, 0, 5)
	val = tab.AppendPathTail(val, 5, 15)
	wantVal := p.ValiantPath(0, 5, 15)
	if len(val) != len(wantVal) {
		t.Fatalf("valiant concat %v, want %v", val, wantVal)
	}
	for i := range val {
		if val[i] != wantVal[i] {
			t.Fatalf("valiant concat %v, want %v", val, wantVal)
		}
	}
}

func TestAppendAscendingVCs(t *testing.T) {
	got := AppendAscendingVCs(nil, 5, 3)
	want := AscendingVCs(5, 3)
	if len(got) != len(want) {
		t.Fatalf("%v != %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%v != %v", got, want)
		}
	}
	if out := AppendAscendingVCs([]int{9}, 2, 4); len(out) != 3 || out[0] != 9 || out[1] != 0 || out[2] != 1 {
		t.Fatalf("append onto prefix = %v", out)
	}
}
