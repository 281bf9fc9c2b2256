package core

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/topo"
)

func mustSN(t testing.TB, q, p int) *SlimNoC {
	t.Helper()
	s, err := New(Params{Q: q, P: p})
	if err != nil {
		t.Fatalf("New(q=%d,p=%d): %v", q, p, err)
	}
	return s
}

func mustNet(t testing.TB, s *SlimNoC, l Layout) *topo.Network {
	t.Helper()
	n, err := s.Network(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := wellFormed(n); err != nil {
		t.Fatal(err)
	}
	return n
}

// wellFormed reports the first router whose neighbour list is not sorted
// and duplicate-free, holds itself or an out-of-range router, or names a
// router that does not name it back.
func wellFormed(n *topo.Network) error {
	if len(n.Adj) != n.Nr || (n.Coords != nil && len(n.Coords) != n.Nr) {
		return fmt.Errorf("%s: %d adjacency rows and %d coordinates for %d routers", n.Name, len(n.Adj), len(n.Coords), n.Nr)
	}
	for i, a := range n.Adj {
		for k, j := range a {
			if j == i || j < 0 || j >= n.Nr || (k > 0 && a[k-1] >= j) || !slices.Contains(n.Adj[j], i) {
				return fmt.Errorf("%s: router %d has neighbours %v", n.Name, i, a)
			}
		}
	}
	return nil
}

// TestTable2Structure verifies the structural parameters of every Table 2
// configuration: router count Nr = 2q^2 and network radix k' as listed.
func TestTable2Structure(t *testing.T) {
	cases := []struct{ q, kp, nr int }{
		{2, 3, 8}, {3, 5, 18}, {4, 6, 32}, {5, 7, 50},
		{7, 11, 98}, {8, 12, 128}, {9, 13, 162},
	}
	for _, c := range cases {
		s := mustSN(t, c.q, 1)
		if s.KPrime != c.kp {
			t.Errorf("q=%d: k' = %d, want %d", c.q, s.KPrime, c.kp)
		}
		if s.Nr() != c.nr {
			t.Errorf("q=%d: Nr = %d, want %d", c.q, s.Nr(), c.nr)
		}
		for i, a := range s.Adj {
			if len(a) != c.kp {
				t.Fatalf("q=%d: router %d has degree %d, want %d", c.q, i, len(a), c.kp)
			}
		}
	}
}

// TestDiameterTwo verifies the headline property: diameter exactly 2 (the
// network is not fully connected, so diameter cannot be 1) for every
// evaluation-relevant q.
func TestDiameterTwo(t *testing.T) {
	for _, q := range []int{3, 4, 5, 7, 8, 9, 11, 13} {
		s := mustSN(t, q, 1)
		n := mustNet(t, s, LayoutBasic)
		if d := n.Diameter(); d != 2 {
			t.Errorf("q=%d: diameter = %d, want 2", q, d)
		}
	}
}

// paperDesigns are the ready-to-use Slim NoCs of §3.4 and §5.6, with their
// node and router counts, network radix k' and router radix k.
var paperDesigns = []struct {
	name           string
	q, p           int
	layout         Layout
	n, nr, kp, rad int
}{
	{"SN-S", 5, 4, LayoutSubgroup, 200, 50, 7, 11},
	{"SN-L", 9, 8, LayoutGroup, 1296, 162, 13, 21},
	{"SN-1024", 8, 8, LayoutSubgroup, 1024, 128, 12, 20},
	{"SN-54", 3, 3, LayoutSubgroup, 54, 18, 5, 8},
}

// TestPaperDesigns validates §3.4: SN-S (N=200, Nr=50, k'=7, p=4),
// SN-L (N=1296, Nr=162, k'=13, p=8), SN-1024 (N=1024, Nr=128, k'=12), and
// SN-54.
func TestPaperDesigns(t *testing.T) {
	for _, c := range paperDesigns {
		s := mustSN(t, c.q, c.p)
		net := mustNet(t, s, c.layout)
		if s.N() != c.n || net.N() != c.n {
			t.Errorf("%s: N = %d/%d, want %d", c.name, s.N(), net.N(), c.n)
		}
		if s.Nr() != c.nr {
			t.Errorf("%s: Nr = %d, want %d", c.name, s.Nr(), c.nr)
		}
		if s.KPrime != c.kp {
			t.Errorf("%s: k' = %d, want %d", c.name, s.KPrime, c.kp)
		}
		if got := net.RouterRadix(); got != c.rad {
			t.Errorf("%s: k = %d, want %d", c.name, got, c.rad)
		}
		if d := net.Diameter(); d != 2 {
			t.Errorf("%s: diameter = %d, want 2", c.name, d)
		}
	}
}

// TestSubgroupStructure verifies the §2.1 structure: subgroups of the same
// type are never directly connected across different subgroup IDs, and every
// pair of opposite-type subgroups is connected by exactly q links.
func TestSubgroupStructure(t *testing.T) {
	s := mustSN(t, 5, 1)
	q := 5
	linkCount := make(map[[4]int]int) // (G,a)->(G',a') link counts
	for i, a := range s.Adj {
		li := s.LabelOf(i)
		for _, j := range a {
			lj := s.LabelOf(j)
			if li.G == lj.G && li.A != lj.A {
				t.Fatalf("link between same-type subgroups %v-%v", li, lj)
			}
			if li.G != lj.G || li.A != lj.A {
				key := [4]int{li.G, li.A, lj.G, lj.A}
				linkCount[key]++
			}
		}
	}
	for a := 0; a < q; a++ {
		for m := 0; m < q; m++ {
			if got := linkCount[[4]int{0, a, 1, m}]; got != q {
				t.Errorf("subgroups (0,%d)-(1,%d) share %d links, want %d", a, m, got, q)
			}
		}
	}
}

// TestIndexLabelRoundTrip property-checks LabelOf against the paper's
// i = G q^2 + (a-1) q + b.
func TestIndexLabelRoundTrip(t *testing.T) {
	s := mustSN(t, 9, 8)
	prop := func(raw uint32) bool {
		i := int(raw) % s.Nr()
		l := s.LabelOf(i)
		return l.G*s.Q*s.Q+l.A*s.Q+l.B == i
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestGeneratorSetSymmetry: X and X' must be symmetric (closed under
// negation) and zero-free — otherwise the adjacency would not be undirected.
func TestGeneratorSetSymmetry(t *testing.T) {
	for _, q := range []int{3, 4, 5, 7, 8, 9, 11, 13} {
		s := mustSN(t, q, 1)
		for _, set := range [][]int{s.X, s.Xp} {
			in := make(map[int]bool)
			for _, e := range set {
				in[e] = true
			}
			for _, e := range set {
				if e == 0 {
					t.Fatalf("q=%d: generator set contains 0", q)
				}
				if !in[s.Field.Neg(e)] {
					t.Fatalf("q=%d: set not symmetric: -%d missing", q, e)
				}
			}
			if len(set) != (q-s.U)/2 {
				t.Fatalf("q=%d: |set| = %d, want %d", q, len(set), (q-s.U)/2)
			}
		}
	}
}

// TestMooreBoundProximity: SN should attach at least ~50% of the Moore bound
// for diameter 2 (the MMS graphs achieve asymptotically ~8/9 of it; small
// instances are lower but must stay well above random graphs).
func TestMooreBoundProximity(t *testing.T) {
	for _, q := range []int{5, 7, 9, 11, 13} {
		s := mustSN(t, q, 1)
		mb := 1 + s.KPrime*s.KPrime // Moore bound for D=2: k^2+1
		frac := float64(s.Nr()) / float64(mb)
		if frac < 0.5 {
			t.Errorf("q=%d: Nr=%d is %.2f of Moore bound %d, want >= 0.5", q, s.Nr(), frac, mb)
		}
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	if _, err := New(Params{Q: 6, P: 1}); err == nil {
		t.Error("q=6 (not a prime power) should fail")
	}
	if _, err := New(Params{Q: 1, P: 1}); err == nil {
		t.Error("q=1 should fail")
	}
	if _, err := New(Params{Q: 5, P: 0}); err == nil {
		t.Error("p=0 should fail")
	}
}

func TestKPrimeFor(t *testing.T) {
	cases := map[int]int{2: 3, 3: 5, 4: 6, 5: 7, 7: 11, 8: 12, 9: 13, 11: 17, 13: 19}
	for q, want := range cases {
		got, err := KPrimeFor(q)
		if err != nil {
			t.Fatalf("KPrimeFor(%d): %v", q, err)
		}
		if got != want {
			t.Errorf("KPrimeFor(%d) = %d, want %d", q, got, want)
		}
	}
}

func TestEnumerateConfigsMatchesTable2(t *testing.T) {
	rows := EnumerateConfigs(1300)
	// Key rows from Table 2 (k', p, N, Nr, q).
	want := []ConfigRow{
		{KPrime: 3, P: 2, N: 16, Nr: 8, Q: 2},
		{KPrime: 5, P: 3, N: 54, Nr: 18, Q: 3},
		{KPrime: 6, P: 3, N: 96, Nr: 32, Q: 4},
		{KPrime: 6, P: 4, N: 128, Nr: 32, Q: 4},
		{KPrime: 7, P: 4, N: 200, Nr: 50, Q: 5},
		{KPrime: 11, P: 6, N: 588, Nr: 98, Q: 7},
		{KPrime: 12, P: 8, N: 1024, Nr: 128, Q: 8},
		{KPrime: 13, P: 8, N: 1296, Nr: 162, Q: 9},
	}
	find := func(kp, p int) *ConfigRow {
		for i := range rows {
			if rows[i].KPrime == kp && rows[i].P == p {
				return &rows[i]
			}
		}
		return nil
	}
	for _, w := range want {
		got := find(w.KPrime, w.P)
		if got == nil {
			t.Errorf("missing Table 2 row k'=%d p=%d", w.KPrime, w.P)
			continue
		}
		if got.N != w.N || got.Nr != w.Nr || got.Q != w.Q {
			t.Errorf("row k'=%d p=%d: N/Nr/q = %d/%d/%d, want %d/%d/%d",
				w.KPrime, w.P, got.N, got.Nr, got.Q, w.N, w.Nr, w.Q)
		}
	}
	// Flags: N=1024 is bold (power of two); q=9 rows are grey (square group
	// grid); no row exceeds 1300 nodes.
	for _, r := range rows {
		if r.N > 1300 {
			t.Errorf("row with N=%d exceeds the limit", r.N)
		}
		if r.N == 1024 && !r.PowerOfTwoN {
			t.Error("N=1024 should be flagged power-of-two")
		}
		if r.Q == 9 && !r.SquareGroups {
			t.Error("q=9 should be flagged square-groups")
		}
		if r.Q == 8 && r.SquareGroups {
			t.Error("q=8 should not be flagged square-groups")
		}
	}
	// Table 2 has 12 non-prime and 12 prime rows.
	np, pr := 0, 0
	for _, r := range rows {
		if r.NonPrime {
			np++
		} else {
			pr++
		}
	}
	if np != 12 || pr != 12 {
		t.Errorf("got %d non-prime and %d prime rows, Table 2 has 12/12", np, pr)
	}
}

func TestFromNetworkSize(t *testing.T) {
	cases := []struct{ n, q, p int }{
		{200, 5, 4},
		{1296, 9, 8},
		{1024, 8, 8},
		{54, 3, 3},
	}
	for _, c := range cases {
		got, err := FromNetworkSize(c.n)
		if err != nil {
			t.Fatalf("FromNetworkSize(%d): %v", c.n, err)
		}
		if got.Q != c.q || got.P != c.p {
			t.Errorf("FromNetworkSize(%d) = q%d p%d, want q%d p%d", c.n, got.Q, got.P, c.q, c.p)
		}
	}
	if _, err := FromNetworkSize(17); err == nil {
		t.Error("FromNetworkSize(17) should fail")
	}
}

// TestInterGroupCables: groups (merged opposite-type subgroup pairs) form a
// fully connected graph with 2(q-1)... the paper says 2(q-1) cables per
// group pair for prime q designs; verify connectivity is uniform.
func TestInterGroupCablesUniform(t *testing.T) {
	s := mustSN(t, 5, 1)
	q := 5
	// Group g = subgroup pair (0,g) ∪ (1,g).
	group := func(i int) int { return s.LabelOf(i).A }
	count := map[[2]int]int{}
	for i, a := range s.Adj {
		for _, j := range a {
			gi, gj := group(i), group(j)
			if gi != gj {
				key := [2]int{minInt(gi, gj), maxInt(gi, gj)}
				count[key]++
			}
		}
	}
	if len(count) != q*(q-1)/2 {
		t.Fatalf("connected group pairs = %d, want %d", len(count), q*(q-1)/2)
	}
	first := -1
	for k, c := range count {
		if c%2 != 0 {
			t.Fatalf("odd directed count for pair %v", k)
		}
		if first < 0 {
			first = c
		}
		if c != first {
			t.Fatalf("non-uniform inter-group cabling: %d vs %d", c, first)
		}
	}
}

func BenchmarkNewSNL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(Params{Q: 9, P: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLargeQConstruction verifies generator-set search across the full
// sweep range used by Fig. 5 (1 <= q <= 37): every prime power must yield a
// verified diameter-2 graph. Skipped in -short mode.
func TestLargeQConstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("large-q sweep")
	}
	for _, q := range []int{11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37} {
		q := q
		t.Run(itoa2(q), func(t *testing.T) {
			s, err := New(Params{Q: q, P: 1})
			if err != nil {
				t.Fatalf("q=%d: %v", q, err)
			}
			// Degree check is built into construction; verify diameter via
			// the network for a couple of representatives only (BFS on
			// Nr=2738 x 55 edges is fine).
			if q <= 17 {
				n := mustNet(t, s, LayoutSubgroup)
				if d := n.Diameter(); d != 2 {
					t.Errorf("q=%d diameter = %d", q, d)
				}
			}
		})
	}
}

func itoa2(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
