package topo

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func validate(t *testing.T, n *Network) {
	t.Helper()
	if err := n.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestManhattanDist(t *testing.T) {
	cases := []struct {
		a, b Coord
		d    int
	}{
		{Coord{1, 1}, Coord{1, 1}, 0},
		{Coord{1, 1}, Coord{4, 1}, 3},
		{Coord{1, 1}, Coord{1, 5}, 4},
		{Coord{2, 3}, Coord{5, 7}, 7},
		{Coord{5, 7}, Coord{2, 3}, 7},
	}
	for _, c := range cases {
		if got := ManhattanDist(c.a, c.b); got != c.d {
			t.Errorf("ManhattanDist(%v,%v) = %d, want %d", c.a, c.b, got, c.d)
		}
	}
}

func TestManhattanDistSymmetryQuick(t *testing.T) {
	prop := func(x1, y1, x2, y2 int16) bool {
		a := Coord{int(x1), int(y1)}
		b := Coord{int(x2), int(y2)}
		d := ManhattanDist(a, b)
		return d == ManhattanDist(b, a) && d >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMesh2D(t *testing.T) {
	m := Mesh2D(8, 8, 3) // the paper's cm3
	validate(t, m)
	if m.Nr != 64 || m.N() != 192 {
		t.Fatalf("cm3: Nr=%d N=%d, want 64/192", m.Nr, m.N())
	}
	if m.NetworkRadix() != 4 {
		t.Errorf("mesh radix = %d, want 4", m.NetworkRadix())
	}
	if m.minNetworkRadix() != 2 {
		t.Errorf("mesh corner degree = %d, want 2", m.minNetworkRadix())
	}
	if d := m.Diameter(); d != 14 {
		t.Errorf("8x8 mesh diameter = %d, want 14", d)
	}
	// All mesh wires have unit length.
	if m.AvgWireLength() != 1 {
		t.Errorf("mesh avg wire length = %v, want 1", m.AvgWireLength())
	}
	if m.links() != 2*8*7 {
		t.Errorf("mesh links = %d, want %d", m.links(), 2*8*7)
	}
}

func TestTorus2D(t *testing.T) {
	tr := Torus2D(8, 8, 3) // t2d3
	validate(t, tr)
	if tr.Nr != 64 || tr.N() != 192 {
		t.Fatalf("t2d3: Nr=%d N=%d", tr.Nr, tr.N())
	}
	if tr.NetworkRadix() != 4 || tr.minNetworkRadix() != 4 {
		t.Errorf("torus degrees = %d/%d, want 4/4", tr.minNetworkRadix(), tr.NetworkRadix())
	}
	if d := tr.Diameter(); d != 8 {
		t.Errorf("8x8 torus diameter = %d, want 8", d)
	}
	if tr.links() != 2*64 {
		t.Errorf("torus links = %d, want 128", tr.links())
	}
	// Folded placement: every wire at most 2 grid hops.
	for i := 0; i < tr.Nr; i++ {
		for _, j := range tr.Adj[i] {
			if d := ManhattanDist(tr.Coords[i], tr.Coords[j]); d > 2 {
				t.Fatalf("folded torus wire %d-%d has length %d > 2", i, j, d)
			}
		}
	}
}

func TestTorusOddDimension(t *testing.T) {
	tr := Torus2D(5, 3, 1)
	validate(t, tr)
	if d := tr.Diameter(); d != 3 {
		t.Errorf("5x3 torus diameter = %d, want 3", d)
	}
	for i := 0; i < tr.Nr; i++ {
		for _, j := range tr.Adj[i] {
			if d := ManhattanDist(tr.Coords[i], tr.Coords[j]); d > 2 {
				t.Fatalf("folded torus wire %d-%d has length %d > 2", i, j, d)
			}
		}
	}
}

func TestFoldedPosIsPermutation(t *testing.T) {
	for n := 1; n <= 20; n++ {
		seen := make([]bool, n)
		for k := 0; k < n; k++ {
			p := foldedPos(k, n)
			if p < 0 || p >= n || seen[p] {
				t.Fatalf("foldedPos(%d,%d) = %d not a permutation", k, n, p)
			}
			seen[p] = true
		}
	}
}

func TestFBF(t *testing.T) {
	// fbf3 in Table 4: 8x8 grid, p=3, k'=14, k=17, D=2.
	f := FBF(8, 8, 3)
	validate(t, f)
	if f.NetworkRadix() != 14 {
		t.Errorf("fbf3 k' = %d, want 14", f.NetworkRadix())
	}
	if f.RouterRadix() != 17 {
		t.Errorf("fbf3 k = %d, want 17", f.RouterRadix())
	}
	if d := f.Diameter(); d != 2 {
		t.Errorf("FBF diameter = %d, want 2", d)
	}
	// fbf4: 10x5, k'=13, k=17.
	f4 := FBF(10, 5, 4)
	validate(t, f4)
	if f4.NetworkRadix() != 13 || f4.RouterRadix() != 17 {
		t.Errorf("fbf4 k'/k = %d/%d, want 13/17", f4.NetworkRadix(), f4.RouterRadix())
	}
	// fbf9: 12x12, k'=22; fbf8: 18x9, k'=25.
	if got := FBF(12, 12, 9).NetworkRadix(); got != 22 {
		t.Errorf("fbf9 k' = %d, want 22", got)
	}
	if got := FBF(18, 9, 8).NetworkRadix(); got != 25 {
		t.Errorf("fbf8 k' = %d, want 25", got)
	}
}

func TestPFBF(t *testing.T) {
	// pfbf3: 4 FBFs of 4x4 each, p=3, k'=8 (Table 4), D=4.
	f := PFBF(2, 2, 4, 4, 3)
	validate(t, f)
	if f.Nr != 64 || f.N() != 192 {
		t.Fatalf("pfbf3 Nr=%d N=%d", f.Nr, f.N())
	}
	if f.NetworkRadix() != 8 {
		t.Errorf("pfbf3 k' = %d, want 8", f.NetworkRadix())
	}
	if d := f.Diameter(); d != 4 {
		t.Errorf("pfbf3 diameter = %d, want 4", d)
	}
	// pfbf4: 2 FBFs of 5x5, p=4, k'=9.
	f4 := PFBF(2, 1, 5, 5, 4)
	validate(t, f4)
	if f4.NetworkRadix() != 9 {
		t.Errorf("pfbf4 k' = %d, want 9", f4.NetworkRadix())
	}
	// pfbf9: 4 FBFs of 6x6, p=9, k'=12.
	f9 := PFBF(2, 2, 6, 6, 9)
	if f9.NetworkRadix() != 12 {
		t.Errorf("pfbf9 k' = %d, want 12", f9.NetworkRadix())
	}
	if f9.N() != 1296 {
		t.Errorf("pfbf9 N = %d, want 1296", f9.N())
	}
	// pfbf8: 2 FBFs of 9x9, p=8, k'=17.
	f8 := PFBF(2, 1, 9, 9, 8)
	if f8.NetworkRadix() != 17 {
		t.Errorf("pfbf8 k' = %d, want 17", f8.NetworkRadix())
	}
	if f8.N() != 1296 {
		t.Errorf("pfbf8 N = %d, want 1296", f8.N())
	}
}

func TestDragonfly(t *testing.T) {
	// Balanced-ish DF with a=4, h=2, g=9: Nr=36, every router one global
	// link budget of 2, all group pairs connected.
	df, err := Dragonfly(4, 2, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, df)
	if df.Nr != 36 {
		t.Fatalf("df Nr = %d, want 36", df.Nr)
	}
	// Degree: a-1 intra + h global = 5.
	if df.NetworkRadix() != 5 || df.minNetworkRadix() != 5 {
		t.Errorf("df degrees = %d/%d, want 5/5", df.minNetworkRadix(), df.NetworkRadix())
	}
	if d := df.Diameter(); d != 3 {
		t.Errorf("df diameter = %d, want 3", d)
	}
	// Every group pair connected by exactly one link.
	pair := make(map[[2]int]int)
	for i := 0; i < df.Nr; i++ {
		for _, j := range df.Adj[i] {
			gi, gj := i/4, j/4
			if gi < gj {
				pair[[2]int{gi, gj}]++
			}
		}
	}
	if len(pair) != 9*8/2 {
		t.Fatalf("df connects %d group pairs, want 36", len(pair))
	}
	for k, c := range pair {
		if c != 1 {
			t.Fatalf("group pair %v has %d links, want 1", k, c)
		}
	}
}

func TestDragonflyRejectsTooManyGroups(t *testing.T) {
	if _, err := Dragonfly(2, 1, 4, 1); err == nil {
		t.Error("expected error for g > a*h+1")
	}
}

func TestFoldedClos(t *testing.T) {
	c := FoldedClos(25, 8, 8) // 200 nodes on 25 leaves
	validate(t, c)
	if c.N() != 200 {
		t.Fatalf("clos N = %d, want 200", c.N())
	}
	if c.Nr != 33 {
		t.Fatalf("clos Nr = %d, want 33", c.Nr)
	}
	if d := c.Diameter(); d != 2 {
		t.Errorf("clos diameter = %d, want 2", d)
	}
	// Node map: all nodes on leaves, spines empty.
	for v := 0; v < c.N(); v++ {
		if r := c.NodeRouter(v); r >= 25 {
			t.Fatalf("node %d mapped to spine %d", v, r)
		}
	}
	for s := 25; s < 33; s++ {
		if nodes := c.routerNodes(s); len(nodes) != 0 {
			t.Fatalf("spine %d has %d nodes", s, len(nodes))
		}
	}
	if got := c.routerNodes(3); len(got) != 8 || got[0] != 24 {
		t.Fatalf("leaf 3 nodes = %v", got)
	}
}

func TestNodeRouterUniform(t *testing.T) {
	m := Mesh2D(4, 4, 3)
	for v := 0; v < m.N(); v++ {
		if m.NodeRouter(v) != v/3 {
			t.Fatalf("NodeRouter(%d) = %d", v, m.NodeRouter(v))
		}
	}
	nodes := m.routerNodes(5)
	if len(nodes) != 3 || nodes[0] != 15 || nodes[2] != 17 {
		t.Fatalf("routerNodes(5) = %v", nodes)
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	n := &Network{Name: "bad", Nr: 2, P: 1, Adj: [][]int{{1}, {}}}
	if err := n.validate(); err == nil {
		t.Error("expected asymmetry error")
	}
	n2 := &Network{Name: "bad2", Nr: 2, P: 1, Adj: [][]int{{0}, {}}}
	if err := n2.validate(); err == nil {
		t.Error("expected self-loop error")
	}
}

func TestAvgShortestPath(t *testing.T) {
	// Fully connected K4: all pairs distance 1.
	f := FBF(4, 1, 1)
	if got := f.AvgShortestPath(); got != 1 {
		t.Errorf("K4 avg path = %v, want 1", got)
	}
	// FBF diameter 2 implies avg < 2.
	f2 := FBF(8, 8, 3)
	if got := f2.AvgShortestPath(); got <= 1 || got >= 2 {
		t.Errorf("fbf3 avg path = %v, want in (1,2)", got)
	}
}

func TestGridDims(t *testing.T) {
	m := Mesh2D(10, 5, 4)
	x, y := m.GridDims()
	if x != 10 || y != 5 {
		t.Errorf("GridDims = %d,%d, want 10,5", x, y)
	}
}

// TestRandomNetworkValidate property-tests validate against randomly
// generated symmetric graphs.
func TestRandomNetworkValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nr := 2 + rng.Intn(30)
		es := newEdgeSet(nr)
		for e := 0; e < nr*2; e++ {
			i, j := rng.Intn(nr), rng.Intn(nr)
			es.add(i, j)
		}
		n := &Network{Name: "rand", Nr: nr, P: 1, Adj: es.lists()}
		if err := n.validate(); err != nil {
			t.Fatalf("random network should validate: %v", err)
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	n := &Network{Name: "disc", Nr: 4, P: 1, Adj: [][]int{{1}, {0}, {3}, {2}}}
	if err := n.validate(); err != nil {
		t.Fatal(err)
	}
	if d := n.Diameter(); d != -1 {
		t.Errorf("disconnected diameter = %d, want -1", d)
	}
}

func BenchmarkDiameterFBF144(b *testing.B) {
	f := FBF(12, 12, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.diameter() != 2 { // the sweep itself; Diameter() would time the memo
			b.Fatal("wrong diameter")
		}
	}
}

// TestBFS pins the shared sweep helper: distances, the visit order (source
// first, nondecreasing distance, unreachable routers absent), and that the
// caller's queue is reused rather than regrown — the five hand-rolled loops
// this replaced re-sliced their queue forward and so reallocated it for
// every source.
func TestBFS(t *testing.T) {
	n := &Network{Name: "path+island", Nr: 6, P: 1,
		Adj: [][]int{{1}, {0, 2}, {1, 3}, {2}, {5}, {4}}}
	dist := make([]int32, n.Nr)
	queue := make([]int32, 0, n.Nr)
	order := n.BFS(1, dist, queue)
	if want := []int32{1, 0, 2, 3}; !slices.Equal(order, want) {
		t.Errorf("visit order %v, want %v", order, want)
	}
	if want := []int32{1, 0, 1, 2, -1, -1}; !slices.Equal(dist, want) {
		t.Errorf("dist %v, want %v", dist, want)
	}
	f := FBF(12, 12, 9)
	dist, queue = make([]int32, f.Nr), make([]int32, 0, f.Nr)
	if allocs := testing.AllocsPerRun(5, func() {
		for s := 0; s < f.Nr; s++ {
			f.BFS(s, dist, queue)
		}
	}); allocs != 0 {
		t.Errorf("all-sources sweep with caller scratch allocated %.0f times, want 0", allocs)
	}
}

// TestDiameterMemo: the all-pairs sweep runs once per Network, and a damaged
// copy computes its own answer instead of inheriting the original's.
func TestDiameterMemo(t *testing.T) {
	m := Mesh2D(3, 3, 1)
	if d := m.Diameter(); d != 4 {
		t.Fatalf("3x3 mesh diameter = %d, want 4", d)
	}
	if allocs := testing.AllocsPerRun(5, func() { m.Diameter() }); allocs != 0 {
		t.Errorf("memoized Diameter allocated %.0f times, want 0", allocs)
	}
	if d := m.RemoveRandomLinks(1.0, 1).Diameter(); d != -1 {
		t.Errorf("linkless copy reports diameter %d, want -1 (memo inherited?)", d)
	}
}

// TestHandshakeLemma: the sum of degrees equals twice the link count for
// every constructed baseline.
func TestHandshakeLemma(t *testing.T) {
	nets := []*Network{
		Mesh2D(7, 5, 2), Torus2D(6, 6, 3), FBF(5, 4, 2),
		PFBF(2, 2, 3, 3, 2), FoldedClos(9, 3, 4),
	}
	df, err := Dragonfly(4, 2, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, df)
	for _, n := range nets {
		total := 0
		for _, a := range n.Adj {
			total += len(a)
		}
		if total != 2*n.links() {
			t.Errorf("%s: degree sum %d != 2*links %d", n.Name, total, 2*n.links())
		}
	}
}

// TestTorusDominatesMesh: a torus has the mesh's links plus the wraps, so
// its diameter and average path cannot exceed the mesh's.
func TestTorusDominatesMesh(t *testing.T) {
	for _, dim := range [][2]int{{4, 4}, {8, 8}, {10, 5}} {
		m := Mesh2D(dim[0], dim[1], 1)
		tr := Torus2D(dim[0], dim[1], 1)
		if tr.Diameter() > m.Diameter() {
			t.Errorf("%dx%d: torus diameter %d > mesh %d", dim[0], dim[1], tr.Diameter(), m.Diameter())
		}
		if tr.AvgShortestPath() > m.AvgShortestPath() {
			t.Errorf("%dx%d: torus avg path exceeds mesh", dim[0], dim[1])
		}
	}
}

// TestFBFDegreeFormula: FBF network radix is (cx-1)+(cy-1) for every grid.
func TestFBFDegreeFormula(t *testing.T) {
	for cx := 2; cx <= 8; cx++ {
		for cy := 2; cy <= 6; cy++ {
			f := FBF(cx, cy, 1)
			want := cx + cy - 2
			if f.NetworkRadix() != want || f.minNetworkRadix() != want {
				t.Errorf("FBF(%d,%d) radix %d..%d, want %d",
					cx, cy, f.minNetworkRadix(), f.NetworkRadix(), want)
			}
		}
	}
}
