package core

import (
	"math"
	"testing"

	"repro/internal/topo"
)

// TestCoordinatesBijective: every layout must place routers on distinct
// cells.
func TestCoordinatesBijective(t *testing.T) {
	for _, q := range []int{3, 4, 5, 8, 9} {
		s := mustSN(t, q, 1)
		for _, l := range Layouts() {
			coords, err := s.coordinates(l, 42)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[topo.Coord]int)
			for i, c := range coords {
				if c.X < 1 || c.Y < 1 {
					t.Fatalf("q=%d %s: coordinate %v not 1-indexed", q, l, c)
				}
				if prev, dup := seen[c]; dup {
					t.Fatalf("q=%d %s: routers %d and %d share cell %v", q, l, prev, i, c)
				}
				seen[c] = i
			}
		}
	}
}

// TestRectangularLayouts: basic, subgroup and rand use a q x 2q die.
func TestRectangularLayouts(t *testing.T) {
	s := mustSN(t, 5, 4)
	for _, l := range []Layout{LayoutBasic, LayoutSubgroup, LayoutRand} {
		n := mustNet(t, s, l)
		x, y := n.GridDims()
		if x != 5 || y != 10 {
			t.Errorf("%s: die is %dx%d, want 5x10", l, x, y)
		}
	}
}

// TestGroupLayoutNearSquare: the group layout of SN-L (q=9) must arrange the
// 9 groups on a 3x3 grid, giving a die close to square.
func TestGroupLayoutNearSquare(t *testing.T) {
	s := mustSN(t, 9, 8)
	n := mustNet(t, s, LayoutGroup)
	x, y := n.GridDims()
	ratio := float64(x) / float64(y)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("group layout die %dx%d is far from square", x, y)
	}
	// All 162 routers fit in the blocks.
	if x*y < 162 {
		t.Errorf("die %dx%d cannot hold 162 routers", x, y)
	}
}

// TestLayoutImprovesWireLength reproduces the headline §3.3 result: the
// subgroup and group layouts reduce average wire length versus basic and
// rand (≈25% in the paper).
func TestLayoutImprovesWireLength(t *testing.T) {
	for _, q := range []int{5, 8, 9} {
		s := mustSN(t, q, 1)
		m := map[Layout]float64{}
		for _, l := range Layouts() {
			m[l] = mustNet(t, s, l).AvgWireLength()
		}
		if m[LayoutSubgroup] >= m[LayoutBasic] {
			t.Errorf("q=%d: sn_subgr M=%.2f not better than sn_basic M=%.2f",
				q, m[LayoutSubgroup], m[LayoutBasic])
		}
		if m[LayoutSubgroup] >= m[LayoutRand] {
			t.Errorf("q=%d: sn_subgr M=%.2f not better than sn_rand M=%.2f",
				q, m[LayoutSubgroup], m[LayoutRand])
		}
	}
}

// TestSubgroupReductionMagnitude: for SN-S the paper reports ~25% reduction
// of M by sn_subgr/sn_gr vs sn_rand/sn_basic. Accept 10%..45%.
func TestSubgroupReductionMagnitude(t *testing.T) {
	s := mustSN(t, 5, 4)
	basic := mustNet(t, s, LayoutBasic).AvgWireLength()
	subgr := mustNet(t, s, LayoutSubgroup).AvgWireLength()
	red := 1 - subgr/basic
	if red < 0.10 || red > 0.45 {
		t.Errorf("sn_subgr reduces M by %.1f%%, expected roughly 25%%", red*100)
	}
}

// TestWireCrossingsConservation: summing the per-cell crossing counts of a
// single horizontal wire equals its path length in cells.
func TestWireCrossingsConservation(t *testing.T) {
	n := &topo.Network{
		Name: "pair", Nr: 2, P: 1,
		Adj:    [][]int{{1}, {0}},
		Coords: []topo.Coord{{X: 1, Y: 1}, {X: 4, Y: 1}},
	}
	cr := wireCrossings(n)
	total := 0
	for _, col := range cr {
		for _, c := range col {
			total += c
		}
	}
	// Two directed wires, each crossing 4 cells (endpoints included).
	if total != 8 {
		t.Errorf("crossing total = %d, want 8", total)
	}
}

// TestWireCrossingsLShape: a diagonal wire takes an L path; the corner cell
// depends on which distance dominates.
func TestWireCrossingsLShape(t *testing.T) {
	n := &topo.Network{
		Name: "L", Nr: 2, P: 1,
		Adj:    [][]int{{1}, {0}},
		Coords: []topo.Coord{{X: 1, Y: 1}, {X: 4, Y: 2}},
	}
	cr := wireCrossings(n)
	// |dx|=3 > |dy|=1: vertical-first from each source.
	// Wire from (1,1): (1,1),(1,2),(2,2),(3,2),(4,2).
	if cr[0][1] == 0 {
		t.Error("expected wire over (1,2)")
	}
	// Wire from (4,2): (4,2),(4,1),(3,1),(2,1),(1,1).
	if cr[3][0] == 0 {
		t.Error("expected wire over (4,1)")
	}
}

// TestWiringConstraintsSatisfied reproduces §3.3.2: no SN layout violates
// Eq. 3 at 45/22/11 nm for the paper's design points.
func TestWiringConstraintsSatisfied(t *testing.T) {
	for _, d := range paperDesigns[:3] {
		s := mustSN(t, d.q, d.p)
		for _, l := range Layouts() {
			n := mustNet(t, s, l)
			for _, wc := range WiringConstraints() {
				if got := MaxWireCrossing(n); got > wc.MaxWires() {
					t.Errorf("%s %s at %s: max crossings %d exceed W=%d",
						d.name, l, wc.Node, got, wc.MaxWires())
				}
			}
		}
	}
}

// TestDistanceDistribution sums to 1 and favours short links under sn_subgr.
func TestDistanceDistribution(t *testing.T) {
	s := mustSN(t, 5, 4)
	n := mustNet(t, s, LayoutSubgroup)
	dist := DistanceDistribution(n)
	sum := 0.0
	for _, p := range dist {
		if p < 0 {
			t.Fatal("negative probability")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %v", sum)
	}
	if len(dist) == 0 || dist[0] <= 0 {
		t.Error("expected mass on the shortest distance bin")
	}
}

// TestFewerLongestWires reproduces the Fig. 6 observation: sn_subgr uses
// fewer of the longest links than sn_basic for SN-S.
func TestFewerLongestWires(t *testing.T) {
	s := mustSN(t, 5, 4)
	long := func(l Layout) int {
		n := mustNet(t, s, l)
		count := 0
		for i := 0; i < n.Nr; i++ {
			for _, j := range n.Adj[i] {
				if j > i && topo.ManhattanDist(n.Coords[i], n.Coords[j]) >= 9 {
					count++
				}
			}
		}
		return count
	}
	if long(LayoutSubgroup) > long(LayoutBasic) {
		t.Errorf("sn_subgr has %d longest wires vs sn_basic %d", long(LayoutSubgroup), long(LayoutBasic))
	}
}

// TestTheorem1Scaling checks M = Θ(∛N) (§3.3.3, Theorem 1). With the ideal
// concentration, N ∝ q^3, so ∛N ∝ q and the ratio M/q must stay within a
// constant band across sizes for the subgroup layout.
func TestTheorem1Scaling(t *testing.T) {
	var ratios []float64
	for _, q := range []int{5, 7, 9, 11, 13} {
		s := mustSN(t, q, 1)
		n := mustNet(t, s, LayoutSubgroup)
		m := n.AvgWireLength()
		ratios = append(ratios, m/float64(q))
	}
	lo, hi := ratios[0], ratios[0]
	for _, r := range ratios {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi/lo > 3 {
		t.Errorf("M/∛N ratios %v vary by more than 3x: not Θ(∛N)-like", ratios)
	}
}

func TestUnknownLayout(t *testing.T) {
	s := mustSN(t, 3, 1)
	if _, err := s.coordinates(Layout("bogus"), 0); err == nil {
		t.Error("unknown layout should fail")
	}
}

func TestRandLayoutDeterministic(t *testing.T) {
	s := mustSN(t, 5, 1)
	a, _ := s.coordinates(LayoutRand, 7)
	b, _ := s.coordinates(LayoutRand, 7)
	c, _ := s.coordinates(LayoutRand, 8)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed must give the same placement")
	}
	if !diff {
		t.Error("different seeds should give different placements")
	}
}
