package routing

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/topo"
)

// builderWords derives the NextEject-terminated next-hop words of the
// builder's src->dst route over vcs VCs the long way: Route's path and VCs,
// and a search of the sender's adjacency row per hop. It fails the test on a route with
// the wrong endpoints, a VC count that does not match the hops, a VC out of
// range, or a hop over a missing link.
func builderWords(t testing.TB, net *topo.Network, pb router, vcs, src, dst int) ([]uint32, []int) {
	t.Helper()
	path, vc := pb.Route(src, dst)
	if len(path) == 0 || path[0] != src || path[len(path)-1] != dst {
		t.Fatalf("route %d->%d has bad endpoints %v", src, dst, path)
	}
	if len(vc) != len(path)-1 {
		t.Fatalf("route %d->%d: %d vcs for %d hops", src, dst, len(vc), len(path)-1)
	}
	words := make([]uint32, 0, len(path))
	for i, vc := range vc {
		port, ok := slices.BinarySearch(net.Adj[path[i]], path[i+1])
		if !ok {
			t.Fatalf("route %d->%d uses a missing link: %v", src, dst, path)
		}
		if vc < 0 || vc >= vcs {
			t.Fatalf("route %d->%d: vc %d out of range [0, %d)", src, dst, vc, vcs)
		}
		words = append(words, NextWord(port, vc, vcs))
	}
	return append(words, NextEject), path
}

// checkTableMatchesBuilder holds every pair of a compiled table against its
// builder's reference route: AppendNextWords equals the words derived from
// Route, and AppendPath equals Route's path.
func checkTableMatchesBuilder(t testing.TB, tab *RouteTable, net *topo.Network, pb router) {
	t.Helper()
	if tab.Nr() != net.Nr {
		t.Fatalf("table routes %d routers, want %d", tab.Nr(), net.Nr)
	}
	var words []uint32
	var path []int
	for src := 0; src < net.Nr; src++ {
		for dst := 0; dst < net.Nr; dst++ {
			want, wantPath := builderWords(t, net, pb, tab.NumVCs(), src, dst)
			words = tab.AppendNextWords(words[:0], src, dst)
			path = tab.AppendPath(path[:0], src, dst)
			if !slices.Equal(words, want) || !slices.Equal(path, wantPath) {
				t.Fatalf("vcs=%d %d->%d: table walks %v with words %#x, builder routes %v with %#x",
					tab.NumVCs(), src, dst, path, words, wantPath, want)
			}
		}
	}
}

// TestGridTablesMatchRoute is the oracle for the grid fills and VC rules:
// on every mesh, torus and FBF from 1x1 to 8x8, the larger preset grids and
// a set of PFBF shapes, at every VC count from 1 to 8 (from 2 where the
// builder needs it), the table NewTable compiles walks exactly the routes and
// VCs the builder's Route assigns. Two-router rings (every move crosses the dateline) and
// one-router dimensions are in the sweep.
func TestGridTablesMatchRoute(t *testing.T) {
	type shape struct {
		name string
		net  *topo.Network
		kind Kind
	}
	var shapes []shape
	for x := 1; x <= 8; x++ {
		for y := 1; y <= 8; y++ {
			shapes = append(shapes,
				shape{fmt.Sprintf("mesh%dx%d", x, y), topo.Mesh2D(x, y, 1), Kind{Class: ClassMesh, RX: x, RY: y}},
				shape{fmt.Sprintf("torus%dx%d", x, y), topo.Torus2D(x, y, 1), Kind{Class: ClassTorus, RX: x, RY: y}},
				shape{fmt.Sprintf("fbf%dx%d", x, y), topo.FBF(x, y, 1), Kind{Class: ClassFBF, RX: x, RY: y}})
		}
	}
	// The grids of the registered presets beyond 8x8 (slimnoc's Table 4
	// set); the 1260-router 35x36 ones only outside -short, and at 2 VCs
	// only, as the VC rules do not depend on the grid's size.
	grids := [][2]int{{10, 5}, {12, 12}, {18, 9}}
	if !testing.Short() {
		grids = append(grids, [2]int{35, 36})
	}
	for _, g := range grids {
		x, y := g[0], g[1]
		shapes = append(shapes,
			shape{fmt.Sprintf("mesh%dx%d", x, y), topo.Mesh2D(x, y, 1), Kind{Class: ClassMesh, RX: x, RY: y}},
			shape{fmt.Sprintf("torus%dx%d", x, y), topo.Torus2D(x, y, 1), Kind{Class: ClassTorus, RX: x, RY: y}},
			shape{fmt.Sprintf("fbf%dx%d", x, y), topo.FBF(x, y, 1), Kind{Class: ClassFBF, RX: x, RY: y}})
	}
	for _, p := range [][4]int{{2, 1, 3, 3}, {2, 2, 4, 4}, {2, 1, 5, 5}, {3, 2, 2, 3}, {1, 3, 3, 2}, {2, 2, 6, 6}, {2, 1, 9, 9}} {
		shapes = append(shapes, shape{fmt.Sprintf("pfbf%dx%d_of_%dx%d", p[0], p[1], p[2], p[3]),
			topo.PFBF(p[0], p[1], p[2], p[3], 1), Kind{Class: ClassPFBF, PX: p[0], PY: p[1], RX: p[2], RY: p[3]}})
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			for vcs := 1; vcs <= 8; vcs++ {
				if vcs == 1 && (s.kind.Class == ClassTorus || s.kind.Class == ClassPFBF) || s.net.Nr > 1000 && vcs != 2 {
					continue
				}
				pb, err := NewRoutingFor(s.net, s.kind, vcs)
				if err != nil {
					t.Fatal(err)
				}
				tab, err := NewTable(s.net, s.kind, vcs)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := tab.MemBytes(), int64(s.net.Nr*s.net.Nr); got != want || tab.NumVCs() != vcs {
					t.Fatalf("MemBytes = %d over %d VCs, want one byte per pair (%d) over %d", got, tab.NumVCs(), want, vcs)
				}
				checkTableMatchesBuilder(t, tab, s.net, pb.(router))
			}
		})
	}
}

// TestTorusDatelineVCs pins the dateline rule on the case that tells it
// apart from "VC 1 after the crossing": a segment that wraps rides VC 1 from
// its first hop.
func TestTorusDatelineVCs(t *testing.T) {
	net := topo.Torus2D(3, 5, 1)
	kind := Kind{Class: ClassTorus, RX: 3, RY: 5}
	pb, err := NewRoutingFor(net, kind, 2)
	if err != nil {
		t.Fatal(err)
	}
	if path, vcs := pb.(router).Route(3, 12); !slices.Equal(path, []int{3, 0, 12}) || !slices.Equal(vcs, []int{1, 1}) {
		t.Fatalf("Route(3, 12) = %v %v, want [3 0 12] [1 1]", path, vcs)
	}
	tab, err := NewTable(net, kind, 2)
	if err != nil {
		t.Fatal(err)
	}
	words := tab.AppendNextWords(nil, 3, 12)
	for i, w := range words[:len(words)-1] {
		if vc := int(w&0xffff) % 2; vc != 1 {
			t.Errorf("hop %d of 3->12 rides VC %d, want 1", i, vc)
		}
	}
}

// TestGridTableRejectsMismatchedKind: a Kind that does not describe the
// network fails the compile with an error instead of a table that routes
// over links the network lacks.
func TestGridTableRejectsMismatchedKind(t *testing.T) {
	mesh := topo.Mesh2D(4, 4, 1)
	for _, kind := range []Kind{
		{Class: ClassTorus, RX: 4, RY: 4}, // wrap links the mesh lacks
		{Class: ClassFBF, RX: 4, RY: 4},   // row and column express links
		{Class: ClassMesh, RX: 8, RY: 2},  // right size, wrong shape
		{Class: ClassMesh, RX: 5, RY: 4},  // wrong size
	} {
		if _, err := NewTable(mesh, kind, 2); err == nil {
			t.Errorf("%+v on a 4x4 mesh compiled", kind)
		}
	}
}
