// Package core implements the paper's primary contribution: the Slim NoC
// topology family. It constructs the underlying MMS degree-diameter graphs
// over prime and non-prime finite fields (§3.1, §3.5), provides the
// NoC-specific physical layouts and placement model (§3.2–3.3), the buffer
// and cost models (§3.2.2–3.2.3), and the configuration tables (Table 2).
// The paper's SN-S / SN-L / SN-1024 designs (§3.4) are these constructions
// at fixed (q, p, layout); the network presets in slimnoc name them.
package core

import (
	"fmt"
	"sort"

	"repro/internal/gf"
	"repro/internal/topo"
)

// Params describes one Slim NoC instance before layout selection.
type Params struct {
	Q int // the structural parameter q: a prime power (§2.1)
	P int // concentration: nodes per router
}

// SlimNoC is a constructed Slim NoC: the MMS graph plus the field and
// generator sets that produced it. Router [G|a,b] (G in {0,1}; a, b field
// element indices 0..q-1) has router index G*q^2 + a*q + b.
type SlimNoC struct {
	Params
	U      int // q = 4w + u with u in {-1, 0, 1}
	Field  *gf.Field
	X, Xp  []int // generator sets X and X' (§3.5.1)
	Adj    [][]int
	KPrime int // network radix k' = (3q-u)/2
}

// Label identifies a router in the subgroup view (§3.2.1): subgroup type G,
// subgroup ID A and position B, all as field-element indices 0..q-1. The
// paper's 1-based [G|a,b] uses a = A+1, b = B+1.
type Label struct {
	G, A, B int
}

// LabelOf returns the label of router i, the inverse of the paper's
// i = G q^2 + (a-1) q + b (zero-based).
func (s *SlimNoC) LabelOf(i int) Label {
	q := s.Q
	return Label{G: i / (q * q), A: (i / q) % q, B: i % q}
}

// Nr returns the router count 2q^2.
func (s *SlimNoC) Nr() int { return 2 * s.Q * s.Q }

// N returns the node count Nr * P.
func (s *SlimNoC) N() int { return s.Nr() * s.P }

// uFor returns u with q = 4w + u, u in {-1,0,1}. q ≡ 2 (mod 4) only happens
// for q = 2, which the paper treats as u = 0 (k' = 3).
func uFor(q int) (int, error) {
	switch q % 4 {
	case 0, 2:
		return 0, nil
	case 1:
		return 1, nil
	case 3:
		return -1, nil
	}
	return 0, fmt.Errorf("core: unreachable")
}

// KPrimeFor returns the network radix k' = (3q-u)/2 of a Slim NoC with
// parameter q.
func KPrimeFor(q int) (int, error) {
	u, err := uFor(q)
	if err != nil {
		return 0, err
	}
	return (3*q - u) / 2, nil
}

// New constructs the Slim NoC graph for the given parameters. It builds the
// finite field GF(q), searches for valid generator sets (verified for
// symmetry, size, degree and diameter 2), and materialises the adjacency.
func New(p Params) (*SlimNoC, error) {
	if p.Q < 2 {
		return nil, fmt.Errorf("core: q must be >= 2, got %d", p.Q)
	}
	if p.P < 1 {
		return nil, fmt.Errorf("core: concentration must be >= 1, got %d", p.P)
	}
	f, err := gf.New(p.Q)
	if err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	u, err := uFor(p.Q)
	if err != nil {
		return nil, err
	}
	s := &SlimNoC{Params: p, U: u, Field: f, KPrime: (3*p.Q - u) / 2}
	x, xp, err := generatorSets(f, u)
	if err != nil {
		return nil, fmt.Errorf("core: q=%d: %v", p.Q, err)
	}
	s.X, s.Xp = x, xp
	s.Adj = buildAdj(f, x, xp)
	return s, nil
}

// buildAdj materialises the MMS adjacency from Eq. 8-10:
//
//	[0|a,b] ~ [0|a,b']  iff  b - b' in X
//	[1|m,c] ~ [1|m,c']  iff  c - c' in X'
//	[0|a,b] ~ [1|m,c]   iff  b = m*a + c
func buildAdj(f *gf.Field, x, xp []int) [][]int {
	q := f.Order()
	nr := 2 * q * q
	idx := func(g, a, b int) int { return g*q*q + a*q + b }
	inX := membership(q, x)
	inXp := membership(q, xp)
	adj := make([][]int, nr)
	for a := 0; a < q; a++ {
		for b := 0; b < q; b++ {
			i := idx(0, a, b)
			for b2 := 0; b2 < q; b2++ {
				if b2 != b && inX[f.Sub(b, b2)] {
					adj[i] = append(adj[i], idx(0, a, b2))
				}
			}
			// Inter-subgroup: for every m there is exactly one c with
			// b = m*a + c, namely c = b - m*a.
			for m := 0; m < q; m++ {
				c := f.Sub(b, f.Mul(m, a))
				adj[i] = append(adj[i], idx(1, m, c))
				j := idx(1, m, c)
				adj[j] = append(adj[j], i)
			}
		}
	}
	for m := 0; m < q; m++ {
		for c := 0; c < q; c++ {
			i := idx(1, m, c)
			for c2 := 0; c2 < q; c2++ {
				if c2 != c && inXp[f.Sub(c, c2)] {
					adj[i] = append(adj[i], idx(1, m, c2))
				}
			}
		}
	}
	for i := range adj {
		sort.Ints(adj[i])
	}
	return adj
}

func membership(q int, set []int) []bool {
	in := make([]bool, q)
	for _, e := range set {
		in[e] = true
	}
	return in
}

// generatorSets finds generator sets (X, X') for GF(q) such that the MMS
// graph they induce is k'-regular with diameter 2. It tries the closed-form
// Hafner/MMS candidates first (even/odd powers of a primitive element, the
// ±-pair variant for q ≡ 3 mod 4, and shifted variants), then falls back to
// a bounded exhaustive search over symmetric subsets for small q. Every
// candidate is verified before being returned.
func generatorSets(f *gf.Field, u int) (x, xp []int, err error) {
	q := f.Order()
	m := (q - u) / 2
	want := (3*q - u) / 2

	var candidates [][2][]int
	addPair := func(a, b []int) {
		if a != nil && b != nil {
			candidates = append(candidates, [2][]int{a, b})
		}
	}
	for _, xi := range f.PrimitiveElements() {
		evens := powerSet(f, xi, 0, m)
		odds := powerSet(f, xi, 1, m)
		addPair(evens, odds)
		addPair(odds, evens)
		// ± variant for q ≡ 3 (mod 4): w pairs of {±ξ^(2i)}.
		if u == -1 && m%2 == 0 {
			pm := plusMinusSet(f, xi, 0, m/2)
			pmOdd := plusMinusSet(f, xi, 1, m/2)
			addPair(pm, pmOdd)
			addPair(pmOdd, pm)
			addPair(pm, scaleSet(f, xi, pm))
			addPair(pmOdd, scaleSet(f, xi, pmOdd))
		}
		// Shifted variants.
		for t := 1; t < q-1 && t <= 6; t++ {
			sh := f.Pow(xi, t)
			addPair(scaleSetBy(f, sh, evens), odds)
			addPair(evens, scaleSetBy(f, sh, odds))
		}
	}
	for _, c := range candidates {
		if validSets(f, c[0], c[1], m) && graphOK(f, c[0], c[1], want) {
			return c[0], c[1], nil
		}
	}
	// Bounded exhaustive fallback over symmetric subsets.
	if q <= 9 {
		symm := symmetricSubsets(f, m)
		for _, a := range symm {
			for _, b := range symm {
				if graphOK(f, a, b, want) {
					return a, b, nil
				}
			}
		}
	}
	return nil, nil, fmt.Errorf("no valid generator sets found (|X|=%d)", m)
}

// powerSet returns {ξ^(start + 2i) : 0 <= i < count} as a sorted set, or nil
// if the powers collide (set smaller than count).
func powerSet(f *gf.Field, xi, start, count int) []int {
	seen := make(map[int]bool, count)
	e := f.Pow(xi, start)
	step := f.Mul(xi, xi)
	for i := 0; i < count; i++ {
		seen[e] = true
		e = f.Mul(e, step)
	}
	if len(seen) != count {
		return nil
	}
	return sortedKeys(seen)
}

// plusMinusSet returns {±ξ^(start+2i) : 0 <= i < count}, or nil on collision.
func plusMinusSet(f *gf.Field, xi, start, count int) []int {
	seen := make(map[int]bool, 2*count)
	e := f.Pow(xi, start)
	step := f.Mul(xi, xi)
	for i := 0; i < count; i++ {
		seen[e] = true
		seen[f.Neg(e)] = true
		e = f.Mul(e, step)
	}
	if len(seen) != 2*count {
		return nil
	}
	return sortedKeys(seen)
}

func scaleSet(f *gf.Field, xi int, set []int) []int { return scaleSetBy(f, xi, set) }

func scaleSetBy(f *gf.Field, c int, set []int) []int {
	if set == nil {
		return nil
	}
	out := make([]int, len(set))
	for i, e := range set {
		out[i] = f.Mul(c, e)
	}
	sort.Ints(out)
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// validSets checks sizes, non-zero membership and symmetry (X = -X).
func validSets(f *gf.Field, x, xp []int, m int) bool {
	if len(x) != m || len(xp) != m {
		return false
	}
	for _, s := range [][]int{x, xp} {
		in := membership(f.Order(), s)
		for _, e := range s {
			if e == 0 || !in[f.Neg(e)] {
				return false
			}
		}
	}
	return true
}

// graphOK builds the candidate graph and verifies k'-regularity and
// diameter <= 2.
func graphOK(f *gf.Field, x, xp []int, kprime int) bool {
	adj := buildAdj(f, x, xp)
	for _, a := range adj {
		if len(a) != kprime {
			return false
		}
	}
	return diameterAtMost2(adj)
}

// diameterAtMost2 reports whether every vertex reaches every other vertex in
// at most two hops, using bitset neighbourhood unions.
func diameterAtMost2(adj [][]int) bool {
	n := len(adj)
	words := (n + 63) / 64
	nb := make([][]uint64, n)
	for v, a := range adj {
		row := make([]uint64, words)
		row[v/64] |= 1 << (uint(v) % 64)
		for _, w := range a {
			row[w/64] |= 1 << (uint(w) % 64)
		}
		nb[v] = row
	}
	reach := make([]uint64, words)
	for v, a := range adj {
		copy(reach, nb[v])
		for _, w := range a {
			for i, bits := range nb[w] {
				reach[i] |= bits
			}
		}
		count := 0
		for _, bits := range reach {
			count += popcount(bits)
		}
		if count != n {
			return false
		}
	}
	return true
}

func popcount(x uint64) int {
	count := 0
	for x != 0 {
		x &= x - 1
		count++
	}
	return count
}

// symmetricSubsets enumerates all symmetric (S = -S) subsets of F_q^* of
// size m, used as the exhaustive fallback for small q.
func symmetricSubsets(f *gf.Field, m int) [][]int {
	q := f.Order()
	// Build orbits {e, -e}.
	var orbits [][]int
	seen := make([]bool, q)
	for e := 1; e < q; e++ {
		if seen[e] {
			continue
		}
		ne := f.Neg(e)
		seen[e] = true
		if ne == e {
			orbits = append(orbits, []int{e})
		} else {
			seen[ne] = true
			orbits = append(orbits, []int{e, ne})
		}
	}
	var out [][]int
	var rec func(i, size int, cur []int)
	rec = func(i, size int, cur []int) {
		if size == m {
			s := append([]int(nil), cur...)
			sort.Ints(s)
			out = append(out, s)
			return
		}
		if i >= len(orbits) || size > m {
			return
		}
		rec(i+1, size, cur)
		if size+len(orbits[i]) <= m {
			rec(i+1, size+len(orbits[i]), append(cur, orbits[i]...))
		}
	}
	rec(0, 0, nil)
	return out
}

// Network converts the Slim NoC into a placed topo.Network using the given
// layout. The cycle time follows §5.1 (0.5 ns).
func (s *SlimNoC) Network(l Layout, seed int64) (*topo.Network, error) {
	coords, err := s.coordinates(l, seed)
	if err != nil {
		return nil, err
	}
	adj := make([][]int, len(s.Adj))
	for i, a := range s.Adj {
		adj[i] = append([]int(nil), a...)
	}
	return &topo.Network{
		Name:        fmt.Sprintf("sn_%s_q%d_p%d", l, s.Q, s.P),
		Nr:          s.Nr(),
		P:           s.P,
		Adj:         adj,
		Coords:      coords,
		CycleTimeNs: topo.CycleTimeSN,
	}, nil
}
