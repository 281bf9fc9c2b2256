package gf

import (
	"slices"
	"testing"
	"testing/quick"
)

func mustField(t *testing.T, q int) *Field {
	t.Helper()
	f, err := New(q)
	if err != nil {
		t.Fatalf("New(%d): %v", q, err)
	}
	return f
}

func TestNewRejectsNonPrimePowers(t *testing.T) {
	for _, q := range []int{0, 1, 6, 10, 12, 15, 18, 20, 24, 100} {
		if _, err := New(q); err == nil {
			t.Errorf("New(%d): expected error for non-prime-power order", q)
		}
	}
}

func TestNewAcceptsPrimePowers(t *testing.T) {
	for _, q := range []int{2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49} {
		f := mustField(t, q)
		if f.Order() != q {
			t.Errorf("Order() = %d, want %d", f.Order(), q)
		}
	}
}

func TestFactorPrimePower(t *testing.T) {
	cases := []struct {
		q, p, n int
		ok      bool
	}{
		{2, 2, 1, true}, {3, 3, 1, true}, {4, 2, 2, true}, {8, 2, 3, true},
		{9, 3, 2, true}, {16, 2, 4, true}, {27, 3, 3, true}, {49, 7, 2, true},
		{6, 0, 0, false}, {12, 0, 0, false}, {36, 0, 0, false},
	}
	for _, c := range cases {
		p, n, ok := IsPrimePower(c.q)
		if ok != c.ok {
			t.Errorf("IsPrimePower(%d) ok = %v, want %v", c.q, ok, c.ok)
			continue
		}
		if ok && (p != c.p || n != c.n) {
			t.Errorf("IsPrimePower(%d) = (%d,%d), want (%d,%d)", c.q, p, n, c.p, c.n)
		}
	}
}

// fieldAxioms verifies the full set of field axioms exhaustively for small q.
func fieldAxioms(t *testing.T, f *Field) {
	t.Helper()
	q := f.Order()
	for a := 0; a < q; a++ {
		if f.Add(a, 0) != a {
			t.Fatalf("additive identity fails for %d", a)
		}
		if f.Mul(a, 1) != a {
			t.Fatalf("multiplicative identity fails for %d", a)
		}
		if f.Add(a, f.Neg(a)) != 0 {
			t.Fatalf("additive inverse fails for %d", a)
		}
		if a != 0 && !slices.Contains(f.MulTable()[a], 1) {
			t.Fatalf("multiplicative inverse fails for %d", a)
		}
		for b := 0; b < q; b++ {
			if f.Add(a, b) != f.Add(b, a) {
				t.Fatalf("addition not commutative: %d,%d", a, b)
			}
			if f.Mul(a, b) != f.Mul(b, a) {
				t.Fatalf("multiplication not commutative: %d,%d", a, b)
			}
			for c := 0; c < q; c++ {
				if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
					t.Fatalf("addition not associative: %d,%d,%d", a, b, c)
				}
				if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
					t.Fatalf("multiplication not associative: %d,%d,%d", a, b, c)
				}
				if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
					t.Fatalf("distributivity fails: %d,%d,%d", a, b, c)
				}
			}
		}
	}
}

func TestFieldAxiomsExhaustive(t *testing.T) {
	for _, q := range []int{2, 3, 4, 5, 7, 8, 9} {
		q := q
		t.Run(itoa(q), func(t *testing.T) { fieldAxioms(t, mustField(t, q)) })
	}
}

func itoa(n int) string {
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

// TestFieldAxiomsQuick property-tests larger fields on random triples.
func TestFieldAxiomsQuick(t *testing.T) {
	for _, q := range []int{16, 25, 27, 32, 49} {
		f := mustField(t, q)
		prop := func(a, b, c int) bool {
			a, b, c = abs(a)%q, abs(b)%q, abs(c)%q
			if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
				return false
			}
			if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
				return false
			}
			if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
				return false
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("GF(%d) axioms: %v", q, err)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		if x == -x { // MinInt
			return 0
		}
		return -x
	}
	return x
}

func TestNoZeroDivisors(t *testing.T) {
	for _, q := range []int{4, 8, 9, 16, 27} {
		f := mustField(t, q)
		for a := 1; a < q; a++ {
			for b := 1; b < q; b++ {
				if f.Mul(a, b) == 0 {
					t.Fatalf("GF(%d): zero divisor %d*%d", q, a, b)
				}
			}
		}
	}
}

func TestPrimitiveElement(t *testing.T) {
	for _, q := range []int{2, 3, 4, 5, 7, 8, 9, 16, 25} {
		f := mustField(t, q)
		xi := f.PrimitiveElement()
		seen := make(map[int]bool)
		x := 1
		for i := 0; i < q-1; i++ {
			if seen[x] {
				t.Fatalf("GF(%d): primitive element %d has order < q-1", q, xi)
			}
			seen[x] = true
			x = f.Mul(x, xi)
		}
		if len(seen) != q-1 {
			t.Fatalf("GF(%d): generator covers %d elements, want %d", q, len(seen), q-1)
		}
	}
}

// TestF9PrimitiveCount checks the paper's claim that F9 has exactly four
// primitive elements ("There are 4 such (equivalent) elements: v,w,y,z").
func TestF9PrimitiveCount(t *testing.T) {
	f := mustField(t, 9)
	prim := f.PrimitiveElements()
	if len(prim) != 4 {
		t.Fatalf("GF(9) has %d primitive elements, paper says 4", len(prim))
	}
}

// TestF8PrimitiveCount: GF(8)* is cyclic of order 7 (prime), so every
// non-identity element is a generator: 6 of them.
func TestF8PrimitiveCount(t *testing.T) {
	f := mustField(t, 8)
	if got := len(f.PrimitiveElements()); got != 6 {
		t.Fatalf("GF(8) has %d primitive elements, want 6", got)
	}
}

func TestPowAndElementOrder(t *testing.T) {
	f := mustField(t, 9)
	xi := f.PrimitiveElement()
	if f.Pow(xi, 0) != 1 {
		t.Error("Pow(xi,0) != 1")
	}
	if f.Pow(xi, 8) != 1 {
		t.Error("Pow(xi,q-1) != 1")
	}
	if f.elementOrder(xi) != 8 {
		t.Errorf("ElementOrder(primitive) = %d, want 8", f.elementOrder(xi))
	}
	if f.elementOrder(1) != 1 {
		t.Errorf("ElementOrder(1) = %d, want 1", f.elementOrder(1))
	}
}

func TestCharacteristicAddition(t *testing.T) {
	// In GF(2^n), a + a = 0 for every a.
	for _, q := range []int{2, 4, 8, 16} {
		f := mustField(t, q)
		for a := 0; a < q; a++ {
			if f.Add(a, a) != 0 {
				t.Fatalf("GF(%d): a+a != 0 for a=%d", q, a)
			}
			if f.Neg(a) != a {
				t.Fatalf("GF(%d): -a != a in characteristic 2", q)
			}
		}
	}
	// In GF(3^n), a + a + a = 0.
	for _, q := range []int{3, 9, 27} {
		f := mustField(t, q)
		for a := 0; a < q; a++ {
			if f.Add(f.Add(a, a), a) != 0 {
				t.Fatalf("GF(%d): 3a != 0 for a=%d", q, a)
			}
		}
	}
}

func TestSub(t *testing.T) {
	f := mustField(t, 9)
	for a := 0; a < 9; a++ {
		for b := 0; b < 9; b++ {
			if f.Add(f.Sub(a, b), b) != a {
				t.Fatalf("(a-b)+b != a for %d,%d", a, b)
			}
		}
	}
}

func TestTablesAreCopies(t *testing.T) {
	f := mustField(t, 4)
	at := f.AddTable()
	at[0][0] = 99
	if f.Add(0, 0) == 99 {
		t.Error("AddTable returned internal storage")
	}
	mt := f.MulTable()
	mt[1][1] = 99
	if f.Mul(1, 1) == 99 {
		t.Error("MulTable returned internal storage")
	}
}

// TestFrobenius checks (a+b)^p = a^p + b^p, a defining property of
// characteristic-p fields, via testing/quick.
func TestFrobenius(t *testing.T) {
	for _, q := range []int{4, 8, 9, 16, 25, 27} {
		f := mustField(t, q)
		p := f.Char()
		prop := func(a, b int) bool {
			a, b = abs(a)%q, abs(b)%q
			return f.Pow(f.Add(a, b), p) == f.Add(f.Pow(a, p), f.Pow(b, p))
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("GF(%d) Frobenius: %v", q, err)
		}
	}
}

func BenchmarkNewGF9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewGF49(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(49); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMulGroupCyclic: the multiplicative group of every finite field is
// cyclic; the set of element orders must exactly divide q-1 and each order d
// must be taken by φ(d) elements.
func TestMulGroupCyclic(t *testing.T) {
	for _, q := range []int{5, 8, 9, 16, 25} {
		f := mustField(t, q)
		orders := map[int]int{}
		for a := 1; a < q; a++ {
			orders[f.elementOrder(a)]++
		}
		for d, count := range orders {
			if (q-1)%d != 0 {
				t.Errorf("GF(%d): order %d does not divide %d", q, d, q-1)
			}
			if count != totient(d) {
				t.Errorf("GF(%d): %d elements of order %d, want φ(%d)=%d",
					q, count, d, d, totient(d))
			}
		}
	}
}

func totient(n int) int {
	count := 0
	for i := 1; i <= n; i++ {
		if gcd(i, n) == 1 {
			count++
		}
	}
	return count
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// TestFermatLittle: a^q = a for all a (the q-power Frobenius is the
// identity on GF(q)).
func TestFermatLittle(t *testing.T) {
	for _, q := range []int{4, 5, 8, 9, 27} {
		f := mustField(t, q)
		for a := 0; a < q; a++ {
			if f.Pow(a, q) != a {
				t.Errorf("GF(%d): a^q != a for a=%d", q, a)
			}
		}
	}
}
