package routing

import (
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
	p := NewMinimal(n)
	for src := 0; src < n.Nr; src++ {
		for dst := 0; dst < n.Nr; dst++ {
			d := p.Dist(src, dst)
			if src == dst {
				if d != 0 {
					t.Fatalf("Dist(%d,%d) = %d, want 0", src, dst, d)
				}
				continue
			}
			if d < 1 || d > 2 {
				t.Fatalf("SN distance %d->%d = %d, want 1..2", src, dst, d)
			}
			path := p.MinPath(src, dst)
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
	p1 := NewMinimal(n)
	p2 := NewMinimal(n)
	for trial := 0; trial < 100; trial++ {
		src, dst := trial%n.Nr, (trial*7+3)%n.Nr
		a := p1.MinPath(src, dst)
		b := p2.MinPath(src, dst)
		if len(a) != len(b) {
			t.Fatal("non-deterministic path length")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("non-deterministic path")
			}
		}
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

func TestAscendingVCs(t *testing.T) {
	got := AscendingVCs(4, 2)
	want := []int{0, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AscendingVCs(4,2) = %v, want %v", got, want)
		}
	}
	if len(AscendingVCs(0, 2)) != 0 {
		t.Error("zero hops should give empty VC list")
	}
}

// checkBuilder exercises a PathBuilder over all pairs, verifying validity,
// minimality bound, and VC sanity.
func checkBuilder(t *testing.T, net *topo.Network, b PathBuilder, maxHops int) {
	t.Helper()
	p := NewMinimal(net)
	for src := 0; src < net.Nr; src++ {
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
			if min := p.Dist(src, dst); len(path)-1 != min {
				t.Fatalf("path %d->%d not minimal: %d vs %d", src, dst, len(path)-1, min)
			}
			for _, vc := range vcs {
				if vc < 0 || vc >= b.NumVCs() {
					t.Fatalf("vc %d out of range", vc)
				}
			}
		}
	}
}

func TestDORMesh(t *testing.T) {
	net := topo.Mesh2D(8, 8, 3)
	b, err := NewDORMesh(net, 8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkBuilder(t, net, b, 14)
}

func TestDORTorus(t *testing.T) {
	net := topo.Torus2D(8, 8, 3)
	b, err := NewDORTorus(net, 8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkBuilder(t, net, b, 8)
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
	if _, err := NewDORTorus(net, 8, 8, 1); err == nil {
		t.Error("torus routing with 1 VC should be rejected")
	}
}

func TestDORTorusOdd(t *testing.T) {
	net := topo.Torus2D(5, 3, 1)
	b, err := NewDORTorus(net, 5, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkBuilder(t, net, b, 3)
}

func TestXYFBF(t *testing.T) {
	net := topo.FBF(8, 8, 3)
	b, err := NewXYFBF(net, 8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkBuilder(t, net, b, 2)
}

func TestXYPFBF(t *testing.T) {
	net := topo.PFBF(2, 2, 4, 4, 3)
	b, err := NewXYPFBF(net, 2, 2, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkBuilder(t, net, b, 4)
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
}

func TestXYPFBFSinglePartitionDim(t *testing.T) {
	net := topo.PFBF(2, 1, 5, 5, 4) // pfbf4
	b, err := NewXYPFBF(net, 2, 1, 5, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkBuilder(t, net, b, 3)
}

func TestNewRoutingFor(t *testing.T) {
	sn := snNet(t, 3, 1, core.LayoutSubgroup)
	b, err := NewRoutingFor(sn, Kind{Class: ClassGeneric}, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkBuilder(t, sn, b, 2)

	mesh := topo.Mesh2D(4, 4, 1)
	if _, err := NewRoutingFor(mesh, Kind{Class: ClassMesh, RX: 4, RY: 4}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRoutingFor(mesh, Kind{Class: Class(99)}, 2); err == nil {
		t.Error("unknown class should fail")
	}
}

// TestMinimalRoutingBuilder: the generic builder produces min paths with
// ascending VCs for SN.
func TestMinimalRoutingBuilder(t *testing.T) {
	n := snNet(t, 5, 1, core.LayoutSubgroup)
	b := &MinimalRouting{P: NewMinimal(n), VCs: 2}
	path, vcs := b.Route(0, 49)
	if !pathValid(n, path) {
		t.Fatalf("invalid %v", path)
	}
	for i, vc := range vcs {
		want := i
		if want > 1 {
			want = 1
		}
		if vc != want {
			t.Fatalf("vcs = %v", vcs)
		}
	}
}

func BenchmarkNewMinimalSNL(b *testing.B) {
	s, err := core.New(core.Params{Q: 9, P: 8})
	if err != nil {
		b.Fatal(err)
	}
	n, _ := s.Network(core.LayoutGroup, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewMinimal(n)
	}
}

func TestCountMinPathsFBF(t *testing.T) {
	// FBF: same row or column -> exactly 1 minimal path (direct link);
	// diagonal pairs -> exactly 2 (XY and YX).
	net := topo.FBF(4, 4, 1)
	p := NewMinimal(net)
	// Routers 0 (0,0) and 1 (1,0): same row.
	if got := p.CountMinPaths(0, 1); got != 1 {
		t.Errorf("same-row pairs should have 1 minimal path, got %d", got)
	}
	// Routers 0 (0,0) and 5 (1,1): diagonal.
	if got := p.CountMinPaths(0, 5); got != 2 {
		t.Errorf("diagonal pairs should have 2 minimal paths, got %d", got)
	}
	if got := p.CountMinPaths(3, 3); got != 1 {
		t.Errorf("self pair should count 1, got %d", got)
	}
}

func TestPathDiversityHistogram(t *testing.T) {
	net := topo.FBF(3, 3, 1)
	p := NewMinimal(net)
	hist := p.PathDiversity()
	pairs := 0
	for _, n := range hist {
		pairs += n
	}
	if pairs != 9*8 {
		t.Fatalf("histogram covers %d pairs, want 72", pairs)
	}
	// 3x3 FBF: each router has 4 same-row/col peers (1 path) and 4
	// diagonal peers (2 paths).
	if hist[1] != 36 || hist[2] != 36 {
		t.Errorf("histogram = %v, want 36 pairs each of 1 and 2 paths", hist)
	}
}

// TestSNPathDiversity documents a structural property of near-Moore-bound
// MMS graphs: for q=5 every router pair has EXACTLY one minimal path
// (non-adjacent pairs share exactly one common neighbour, like a Moore
// graph's μ=1). This is why the paper's adaptive-routing study (§6) uses
// non-minimal UGAL/Valiant paths for SN rather than minimal-adaptive
// schemes — there is no minimal diversity to exploit.
func TestSNPathDiversity(t *testing.T) {
	n := snNet(t, 5, 1, core.LayoutSubgroup)
	p := NewMinimal(n)
	if avg := p.AvgPathDiversity(); avg != 1.0 {
		t.Errorf("SN q=5 average path diversity = %.3f, want exactly 1 (μ=1)", avg)
	}
	// Adjacent pairs have exactly one minimal path.
	nb := n.Adj[0][0]
	if got := p.CountMinPaths(0, nb); got != 1 {
		t.Errorf("adjacent pair diversity = %d, want 1", got)
	}
	// FBF, by contrast, offers 2 minimal paths on diagonals — the basis of
	// its XY-ADAPT scheme.
	fbf := NewMinimal(topo.FBF(4, 4, 1))
	if avg := fbf.AvgPathDiversity(); avg <= 1.0 {
		t.Errorf("FBF average diversity = %.2f, want > 1", avg)
	}
}
