package topo

import "testing"

func TestRemoveRandomLinksFraction(t *testing.T) {
	n := Torus2D(8, 8, 3) // 128 links
	damaged := n.RemoveRandomLinks(0.25, 1)
	if err := damaged.validate(); err != nil {
		t.Fatal(err)
	}
	want := 128 - 32
	if got := damaged.links(); got != want {
		t.Errorf("links after 25%% removal = %d, want %d", got, want)
	}
	// Original untouched.
	if n.links() != 128 {
		t.Error("RemoveRandomLinks mutated the original")
	}
}

func TestRemoveRandomLinksDeterministic(t *testing.T) {
	n := FBF(8, 8, 3)
	a := n.RemoveRandomLinks(0.1, 42)
	b := n.RemoveRandomLinks(0.1, 42)
	for i := range a.Adj {
		if len(a.Adj[i]) != len(b.Adj[i]) {
			t.Fatal("same seed gave different removals")
		}
		for k := range a.Adj[i] {
			if a.Adj[i][k] != b.Adj[i][k] {
				t.Fatal("same seed gave different removals")
			}
		}
	}
	c := n.RemoveRandomLinks(0.1, 43)
	same := true
	for i := range a.Adj {
		if len(a.Adj[i]) != len(c.Adj[i]) {
			same = false
		}
	}
	if same {
		diff := false
		for i := range a.Adj {
			for k := range a.Adj[i] {
				if k < len(c.Adj[i]) && a.Adj[i][k] != c.Adj[i][k] {
					diff = true
				}
			}
		}
		if !diff {
			t.Error("different seeds gave identical removals")
		}
	}
}

func TestRemoveAllLinks(t *testing.T) {
	n := Mesh2D(3, 3, 1)
	empty := n.RemoveRandomLinks(1.0, 1)
	if empty.links() != 0 {
		t.Errorf("full removal left %d links", empty.links())
	}
	if empty.Diameter() != -1 {
		t.Error("empty graph should report disconnected")
	}
	if c := empty.Connectivity(); c != 0 {
		t.Errorf("connectivity of edgeless graph = %v, want 0", c)
	}
}

func TestConnectivityConnected(t *testing.T) {
	n := Torus2D(5, 5, 1)
	if c := n.Connectivity(); c != 1.0 {
		t.Errorf("connected torus connectivity = %v, want 1", c)
	}
}

func TestConnectivityPartial(t *testing.T) {
	// Two K2 components among 4 routers: 2*1*2=4 reachable ordered pairs of
	// 12 total.
	n := &Network{Name: "pairs", Nr: 4, P: 1, Adj: [][]int{{1}, {0}, {3}, {2}}}
	want := 4.0 / 12.0
	if c := n.Connectivity(); c < want-1e-9 || c > want+1e-9 {
		t.Errorf("connectivity = %v, want %v", c, want)
	}
}

func TestFailurePreservesMetadata(t *testing.T) {
	n := FoldedClos(4, 2, 2)
	d := n.RemoveRandomLinks(0.2, 9)
	if d.P != n.P || d.CycleTimeNs != n.CycleTimeNs {
		t.Error("metadata lost")
	}
	if len(d.NodeMap) != len(n.NodeMap) {
		t.Error("node map lost")
	}
	if len(d.Coords) != len(n.Coords) {
		t.Error("coords lost")
	}
}
