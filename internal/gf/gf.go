// Package gf implements finite (Galois) fields GF(p^n) with explicit
// operation tables, as required by the Slim NoC construction (§3.5 of the
// paper). Prime fields are plain modular arithmetic; prime-power fields are
// built as GF(p)[x]/(f) for an irreducible monic polynomial f found by
// exhaustive search. Elements are identified by indices 0..q-1; index 0 is
// the additive identity and index 1 is the multiplicative identity.
package gf

import (
	"fmt"
	"strconv"
)

// Field is a finite field with q = p^n elements. All operations are table
// driven, so they are valid for both prime and non-prime q.
type Field struct {
	p, n, q int
	add     [][]int // add[a][b] = a+b
	mul     [][]int // mul[a][b] = a*b
	neg     []int   // neg[a] = -a
	poly    []int   // irreducible polynomial coefficients (len n+1), nil for prime fields
	names   []string
}

// New constructs GF(q). q must be a prime power; otherwise an error is
// returned.
func New(q int) (*Field, error) {
	if q < 2 {
		return nil, fmt.Errorf("gf: order %d is not a prime power", q)
	}
	p, n, ok := factorPrimePower(q)
	if !ok {
		return nil, fmt.Errorf("gf: order %d is not a prime power", q)
	}
	if n == 1 {
		return newPrime(p), nil
	}
	return newExtension(p, n)
}

// factorPrimePower returns (p, n) with q = p^n for prime p, or ok=false.
func factorPrimePower(q int) (p, n int, ok bool) {
	for d := 2; d*d <= q; d++ {
		if q%d == 0 {
			p = d
			for q > 1 {
				if q%p != 0 {
					return 0, 0, false
				}
				q /= p
				n++
			}
			return p, n, true
		}
	}
	return q, 1, true // q itself is prime
}

func newPrime(p int) *Field {
	f := &Field{p: p, n: 1, q: p}
	f.initTables(func(a, b int) int { return (a + b) % p }, func(a, b int) int { return (a * b) % p })
	for i := range f.names {
		f.names[i] = strconv.Itoa(i)
	}
	return f
}

func newExtension(p, n int) (*Field, error) {
	q := 1
	for i := 0; i < n; i++ {
		q *= p
	}
	irr := findIrreducible(p, n)
	if irr == nil {
		return nil, fmt.Errorf("gf: no irreducible polynomial of degree %d over GF(%d)", n, p)
	}
	f := &Field{p: p, n: n, q: q, poly: irr}
	f.initTables(
		func(a, b int) int { return addPoly(a, b, p, n) },
		func(a, b int) int { return mulPoly(a, b, p, n, irr) },
	)
	for i := range f.names {
		f.names[i] = polyName(i, p, n)
	}
	return f, nil
}

func (f *Field) initTables(add, mul func(a, b int) int) {
	q := f.q
	f.add = make([][]int, q)
	f.mul = make([][]int, q)
	f.neg = make([]int, q)
	f.names = make([]string, q)
	for a := 0; a < q; a++ {
		f.add[a] = make([]int, q)
		f.mul[a] = make([]int, q)
		for b := 0; b < q; b++ {
			f.add[a][b] = add(a, b)
			f.mul[a][b] = mul(a, b)
		}
	}
	for a := 0; a < q; a++ {
		for b := 0; b < q; b++ {
			if f.add[a][b] == 0 {
				f.neg[a] = b
			}
		}
	}
}

// Polynomial element encoding: element e in [0,q) has base-p digits
// e = c0 + c1*p + ... + c_{n-1}*p^{n-1} representing c0 + c1 x + ...

func addPoly(a, b, p, n int) int {
	res, mult := 0, 1
	for i := 0; i < n; i++ {
		res += ((a%p + b%p) % p) * mult
		a /= p
		b /= p
		mult *= p
	}
	return res
}

// mulPoly multiplies two polynomial-encoded elements modulo irr.
func mulPoly(a, b, p, n int, irr []int) int {
	// Expand digits.
	ac := digits(a, p, n)
	bc := digits(b, p, n)
	prod := make([]int, 2*n-1)
	for i, av := range ac {
		if av == 0 {
			continue
		}
		for j, bv := range bc {
			prod[i+j] = (prod[i+j] + av*bv) % p
		}
	}
	// Reduce modulo irr (monic, degree n).
	for d := len(prod) - 1; d >= n; d-- {
		c := prod[d]
		if c == 0 {
			continue
		}
		prod[d] = 0
		for i := 0; i < n; i++ {
			prod[d-n+i] = ((prod[d-n+i]-c*irr[i])%p + p*p) % p
		}
	}
	res, mult := 0, 1
	for i := 0; i < n; i++ {
		res += prod[i] * mult
		mult *= p
	}
	return res
}

func digits(a, p, n int) []int {
	d := make([]int, n)
	for i := 0; i < n; i++ {
		d[i] = a % p
		a /= p
	}
	return d
}

// findIrreducible searches for a monic irreducible polynomial of degree n
// over GF(p), returned as its n+1 coefficients (constant term first; the
// leading coefficient is always 1). It tests irreducibility by exhaustive
// root/factor checking, which is fine for the small fields used here.
func findIrreducible(p, n int) []int {
	total := 1
	for i := 0; i < n; i++ {
		total *= p
	}
	for enc := 0; enc < total; enc++ {
		cand := append(digits(enc, p, n), 1)
		if isIrreducible(cand, p) {
			return cand
		}
	}
	return nil
}

// isIrreducible reports whether the monic polynomial f (constant first) is
// irreducible over GF(p), by trial division with all monic polynomials of
// degree 1..deg(f)/2.
func isIrreducible(f []int, p int) bool {
	n := len(f) - 1
	for d := 1; d <= n/2; d++ {
		count := 1
		for i := 0; i < d; i++ {
			count *= p
		}
		for enc := 0; enc < count; enc++ {
			g := append(digits(enc, p, d), 1)
			if dividesPoly(f, g, p) {
				return false
			}
		}
	}
	return true
}

// dividesPoly reports whether g divides f over GF(p).
func dividesPoly(f, g []int, p int) bool {
	rem := make([]int, len(f))
	copy(rem, f)
	dg := len(g) - 1
	for d := len(rem) - 1; d >= dg; d-- {
		c := rem[d]
		if c == 0 {
			continue
		}
		// g is monic, so the quotient coefficient is c.
		for i := 0; i <= dg; i++ {
			rem[d-dg+i] = ((rem[d-dg+i]-c*g[i])%p + p) % p
		}
	}
	for _, c := range rem {
		if c != 0 {
			return false
		}
	}
	return true
}

func polyName(e, p, n int) string {
	// Elements are named by their digit string, most significant first,
	// e.g. in GF(9)=GF(3)[x]/(f), element x+2 is "12".
	d := digits(e, p, n)
	s := make([]byte, 0, n)
	for i := n - 1; i >= 0; i-- {
		s = append(s, byte('0'+d[i]))
	}
	return string(s)
}

// Order returns q, the number of elements.
func (f *Field) Order() int { return f.q }

// Char returns the characteristic p.
func (f *Field) Char() int { return f.p }

// Degree returns n where q = p^n.
func (f *Field) Degree() int { return f.n }

// Add returns a+b.
func (f *Field) Add(a, b int) int { return f.add[a][b] }

// Sub returns a-b.
func (f *Field) Sub(a, b int) int { return f.add[a][f.neg[b]] }

// Mul returns a*b.
func (f *Field) Mul(a, b int) int { return f.mul[a][b] }

// Neg returns -a.
func (f *Field) Neg(a int) int { return f.neg[a] }

// Pow returns a^k for k >= 0.
func (f *Field) Pow(a, k int) int {
	res := 1
	for i := 0; i < k; i++ {
		res = f.mul[res][a]
	}
	return res
}

// elementOrder returns the multiplicative order of a (a != 0).
func (f *Field) elementOrder(a int) int {
	if a == 0 {
		panic("gf: order of zero")
	}
	x, ord := a, 1
	for x != 1 {
		x = f.mul[x][a]
		ord++
	}
	return ord
}

// PrimitiveElement returns a generator of the multiplicative group, i.e. an
// element of order q-1. Every finite field has one.
func (f *Field) PrimitiveElement() int {
	for a := 1; a < f.q; a++ {
		if f.elementOrder(a) == f.q-1 {
			return a
		}
	}
	panic("gf: no primitive element (invalid field)")
}

// PrimitiveElements returns all generators of the multiplicative group.
func (f *Field) PrimitiveElements() []int {
	var out []int
	for a := 1; a < f.q; a++ {
		if f.elementOrder(a) == f.q-1 {
			out = append(out, a)
		}
	}
	return out
}

// Name returns a printable name for element a.
func (f *Field) Name(a int) string { return f.names[a] }

// AddTable returns the full addition table (row a, column b). The returned
// slices are copies and may be modified by the caller.
func (f *Field) AddTable() [][]int { return copyTable(f.add) }

// MulTable returns the full multiplication table.
func (f *Field) MulTable() [][]int { return copyTable(f.mul) }

func copyTable(t [][]int) [][]int {
	out := make([][]int, len(t))
	for i, row := range t {
		out[i] = append([]int(nil), row...)
	}
	return out
}

// IsPrimePower reports whether q is a prime power and returns its
// decomposition.
func IsPrimePower(q int) (p, n int, ok bool) {
	if q < 2 {
		return 0, 0, false
	}
	return factorPrimePower(q)
}
