package routing

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/topo"
)

// pathValid reports whether consecutive routers in the path are adjacent.
func pathValid(net *topo.Network, path []int) bool {
	for i := 1; i < len(path); i++ {
		if !net.Connected(path[i-1], path[i]) {
			return false
		}
	}
	return true
}

func snNet(t testing.TB, q, p int, l core.Layout) *topo.Network {
	t.Helper()
	s, err := core.New(core.Params{Q: q, P: p})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Network(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestMinimalPathsSN(t *testing.T) {
	n := snNet(t, 5, 4, core.LayoutSubgroup)
	tab, err := NewTable(n, Kind{Class: ClassGeneric}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < n.Nr; src++ {
		for dst := 0; dst < n.Nr; dst++ {
			d := tab.Hops(src, dst)
			if src == dst {
				if d != 0 {
					t.Fatalf("Hops(%d,%d) = %d, want 0", src, dst, d)
				}
				continue
			}
			if d < 1 || d > 2 {
				t.Fatalf("SN distance %d->%d = %d, want 1..2", src, dst, d)
			}
			path := tab.AppendPath(nil, src, dst)
			if len(path) != d+1 {
				t.Fatalf("path %v has %d hops, want %d", path, len(path)-1, d)
			}
			if !pathValid(n, path) {
				t.Fatalf("invalid path %v", path)
			}
		}
	}
}

func TestMinimalDeterministic(t *testing.T) {
	n := snNet(t, 5, 4, core.LayoutSubgroup)
	t1, err := NewTable(n, Kind{Class: ClassGeneric}, 2)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := NewTable(n, Kind{Class: ClassGeneric}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(t1.cnh, t2.cnh) {
		t.Fatal("non-deterministic route table")
	}
}

// TestRandomIntermediate pins the Valiant intermediate draw: never an
// endpoint, exactly one Intn(nr) per try (the stream UGAL's golden results
// rest on), and no draw where no intermediate exists.
func TestRandomIntermediate(t *testing.T) {
	const nr = 18
	got, want := rng.New(1), rng.New(1)
	for i := 0; i < 100; i++ {
		mid := RandomIntermediate(got, nr, 2, 7)
		if mid == 2 || mid == 7 || mid < 0 || mid >= nr {
			t.Fatalf("bad intermediate %d", mid)
		}
		for {
			if m := want.Intn(nr); m != 2 && m != 7 {
				if m != mid {
					t.Fatalf("draw %d: intermediate %d, want %d", i, mid, m)
				}
				break
			}
		}
	}
	if mid := RandomIntermediate(got, 2, 0, 1); mid != 0 || got.Uint64() != want.Uint64() {
		t.Fatalf("nr=2: intermediate %d, or a draw was made", mid)
	}
}

// TestAscendingVCs pins the generic VC rule on a route longer than the VC
// count: VC0 on the first hop, VC1 on the second, capped at vcs-1 after
// that — here 0->4 on an 8-router ring, four hops over 2 VCs.
func TestAscendingVCs(t *testing.T) {
	ring := topo.Torus2D(8, 1, 1)
	tab, err := NewTable(ring, Kind{Class: ClassGeneric}, 2)
	if err != nil {
		t.Fatal(err)
	}
	words := tab.AppendNextWords(nil, 0, 4)
	var vcs []int
	for _, w := range words[:len(words)-1] {
		vcs = append(vcs, int(w&0xffff)%2)
	}
	if want := []int{0, 1, 1, 1}; !slices.Equal(vcs, want) {
		t.Fatalf("0->4 rides VCs %v, want %v", vcs, want)
	}
	if words := tab.AppendNextWords(nil, 3, 3); len(words) != 1 || words[0] != NextEject {
		t.Errorf("a zero-hop route should be the lone eject word, got %#x", words)
	}
}

// gridRouter returns the reference router of the grid builder NewRoutingFor
// picks for kind.
func gridRouter(t *testing.T, net *topo.Network, kind Kind, vcs int) router {
	t.Helper()
	pb, err := NewRoutingFor(net, kind, vcs)
	if err != nil {
		t.Fatal(err)
	}
	return pb.(router)
}

// checkBuilder exercises a grid builder's reference route over all pairs,
// verifying validity, minimality (against one BFS per source), the hop bound
// and VC range.
func checkBuilder(t *testing.T, net *topo.Network, b router, vcsMax, maxHops int) {
	t.Helper()
	dist := make([]int32, net.Nr)
	for src := 0; src < net.Nr; src++ {
		net.BFS(src, dist, nil)
		for dst := 0; dst < net.Nr; dst++ {
			path, vcs := b.Route(src, dst)
			if !pathValid(net, path) {
				t.Fatalf("invalid path %d->%d: %v", src, dst, path)
			}
			if path[len(path)-1] != dst {
				t.Fatalf("path %d->%d ends at %d", src, dst, path[len(path)-1])
			}
			if len(path)-1 > maxHops {
				t.Fatalf("path %d->%d uses %d hops, max %d", src, dst, len(path)-1, maxHops)
			}
			if min := int(dist[dst]); len(path)-1 != min {
				t.Fatalf("path %d->%d not minimal: %d vs %d", src, dst, len(path)-1, min)
			}
			for _, vc := range vcs {
				if vc < 0 || vc >= vcsMax {
					t.Fatalf("vc %d out of range", vc)
				}
			}
		}
	}
}

func TestDORMesh(t *testing.T) {
	net := topo.Mesh2D(8, 8, 3)
	checkBuilder(t, net, gridRouter(t, net, Kind{Class: ClassMesh, RX: 8, RY: 8}, 2), 2, 14)
}

func TestDORTorus(t *testing.T) {
	net := topo.Torus2D(8, 8, 3)
	kind := Kind{Class: ClassTorus, RX: 8, RY: 8}
	b := gridRouter(t, net, kind, 2)
	checkBuilder(t, net, b, 2, 8)
	// Dateline: a path crossing the X wrap must switch to VC1.
	// Router 7 -> router 1 goes 7->0->1 crossing the wrap.
	_, vcs := b.Route(7, 1)
	if vcs[len(vcs)-1] != 1 {
		t.Errorf("wrap-crossing path should end on VC1, got %v", vcs)
	}
	// A short path with no wrap stays on VC0.
	_, vcs = b.Route(0, 1)
	for _, vc := range vcs {
		if vc != 0 {
			t.Errorf("non-wrapping path should stay on VC0, got %v", vcs)
		}
	}
	if _, err := NewRoutingFor(net, kind, 1); err == nil {
		t.Error("torus routing with 1 VC should be rejected")
	}
}

func TestDORTorusOdd(t *testing.T) {
	net := topo.Torus2D(5, 3, 1)
	checkBuilder(t, net, gridRouter(t, net, Kind{Class: ClassTorus, RX: 5, RY: 3}, 2), 2, 3)
}

func TestXYFBF(t *testing.T) {
	net := topo.FBF(8, 8, 3)
	checkBuilder(t, net, gridRouter(t, net, Kind{Class: ClassFBF, RX: 8, RY: 8}, 2), 2, 2)
}

func TestXYPFBF(t *testing.T) {
	net := topo.PFBF(2, 2, 4, 4, 3)
	kind := Kind{Class: ClassPFBF, PX: 2, PY: 2, RX: 4, RY: 4}
	b := gridRouter(t, net, kind, 2)
	checkBuilder(t, net, b, 2, 4)
	// X-phase hops use VC0, Y-phase hops VC1.
	_, vcs := b.Route(0, net.Nr-1)
	seenY := false
	for _, vc := range vcs {
		if vc == 1 {
			seenY = true
		} else if seenY {
			t.Fatalf("VC0 hop after VC1 phase: %v", vcs)
		}
	}
	if _, err := NewRoutingFor(net, kind, 1); err == nil {
		t.Error("pfbf routing with 1 VC should be rejected")
	}
}

func TestXYPFBFSinglePartitionDim(t *testing.T) {
	net := topo.PFBF(2, 1, 5, 5, 4) // pfbf4
	checkBuilder(t, net, gridRouter(t, net, Kind{Class: ClassPFBF, PX: 2, PY: 1, RX: 5, RY: 5}, 2), 2, 3)
}

func TestNewRoutingFor(t *testing.T) {
	sn := snNet(t, 3, 1, core.LayoutSubgroup)
	pb, err := NewRoutingFor(sn, Kind{Class: ClassGeneric}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(sn.Nr, pb); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(sn.Nr+1, pb); err == nil {
		t.Error("Compile accepted a builder for a network of another size")
	}

	mesh := topo.Mesh2D(4, 4, 1)
	if _, err := NewRoutingFor(mesh, Kind{Class: ClassMesh, RX: 4, RY: 4}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRoutingFor(mesh, Kind{Class: Class(99)}, 2); err == nil {
		t.Error("unknown class should fail")
	}
}

// TestMinimalRoutingBuilder: the generic table walks minimal paths with
// ascending VCs for SN.
func TestMinimalRoutingBuilder(t *testing.T) {
	n := snNet(t, 5, 1, core.LayoutSubgroup)
	tab, err := NewTable(n, Kind{Class: ClassGeneric}, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := tab.AppendPath(nil, 0, 49)
	if !pathValid(n, path) {
		t.Fatalf("invalid %v", path)
	}
	words := tab.AppendNextWords(nil, 0, 49)
	if len(words) != len(path) {
		t.Fatalf("%d words for path %v", len(words), path)
	}
	for i, w := range words[:len(words)-1] {
		port := int(w >> 16)
		if want := NextWord(port, min(i, 1), 2); w != want || n.Adj[path[i]][port] != path[i+1] {
			t.Fatalf("hop %d: word %#x, want %#x toward %d on path %v", i, w, want, path[i+1], path)
		}
	}
}

func BenchmarkNewTableSNL(b *testing.B) {
	s, err := core.New(core.Params{Q: 9, P: 8})
	if err != nil {
		b.Fatal(err)
	}
	n, _ := s.Network(core.LayoutGroup, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewTable(n, Kind{Class: ClassGeneric}, 2); err != nil {
			b.Fatal(err)
		}
	}
}
