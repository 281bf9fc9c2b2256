package core

import (
	"math"
	"testing"
	"testing/quick"
)

// ebVar is the §3.2.2 EB-Var design at the paper's 2 VCs, without SMART.
var ebVar = Buffers{Scheme: EBVar, VCs: 2, H: 1}

// withSMART returns the plan at the paper's SMART hop factor H = 9 (45 nm,
// 1 GHz; §5.1).
func withSMART(b Buffers) Buffers {
	b.H = 9
	return b
}

func TestRTT(t *testing.T) {
	m := ebVar
	// Tij = 2*ceil(d/H) + 3 with H=1.
	cases := map[int]int{1: 5, 2: 7, 5: 13, 10: 23}
	for d, want := range cases {
		if got := m.RTT(d); got != want {
			t.Errorf("RTT(%d) = %d, want %d", d, got, want)
		}
	}
	sm := withSMART(m)
	// H=9: distances 1..9 take one link cycle.
	for d := 1; d <= 9; d++ {
		if got := sm.RTT(d); got != 5 {
			t.Errorf("SMART RTT(%d) = %d, want 5", d, got)
		}
	}
	if got := sm.RTT(10); got != 7 {
		t.Errorf("SMART RTT(10) = %d, want 7", got)
	}
}

// TestSMARTReducesRTTQuick: SMART RTT is never larger and RTT is monotone in
// distance.
func TestSMARTReducesRTTQuick(t *testing.T) {
	m := ebVar
	sm := withSMART(m)
	prop := func(raw uint16) bool {
		d := int(raw)%60 + 1
		if sm.RTT(d) > m.RTT(d) {
			return false
		}
		return m.RTT(d+1) >= m.RTT(d) && sm.RTT(d+1) >= sm.RTT(d)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEdgeBufferFlits(t *testing.T) {
	m := ebVar // 2 VCs, 1 flit/cycle
	if got := m.InputCap(1) * m.VCs; got != 10 {
		t.Errorf("δij(1) = %d, want 10 (RTT 5 x 2 VCs)", got)
	}
	if got := m.InputCap(5) * m.VCs; got != 26 {
		t.Errorf("δij(5) = %d, want 26", got)
	}
}

// TestLayoutReducesTotalBuffers: sn_subgr/sn_gr reduce Δeb versus sn_basic
// (the paper reports ≈18% for sn_gr on the sweep).
func TestLayoutReducesTotalBuffers(t *testing.T) {
	m := ebVar
	for _, q := range []int{5, 9} {
		s := mustSN(t, q, 1)
		basic := m.Flits(mustNet(t, s, LayoutBasic))
		subgr := m.Flits(mustNet(t, s, LayoutSubgroup))
		if subgr >= basic {
			t.Errorf("q=%d: Δeb subgr=%d not below basic=%d", q, subgr, basic)
		}
	}
}

// TestSMARTReducesBuffers: with SMART, total edge buffers shrink.
func TestSMARTReducesBuffers(t *testing.T) {
	s := mustSN(t, 9, 8)
	n := mustNet(t, s, LayoutSubgroup)
	m := ebVar
	if sm := withSMART(m); sm.Flits(n) >= m.Flits(n) {
		t.Error("SMART should reduce Δeb")
	}
}

// TestCentralBufferIndependentOfWires: Δcb does not depend on layout (it is
// a function of Nr, k' and |VC| only) — the §3.3.1 observation that CBs give
// the lowest and layout-independent buffer budget.
func TestCentralBufferIndependentOfWires(t *testing.T) {
	s := mustSN(t, 5, 4)
	m := Buffers{Scheme: CBR, VCs: 2}
	a := m.Eq6Flits(mustNet(t, s, LayoutBasic))
	b := m.Eq6Flits(mustNet(t, s, LayoutSubgroup))
	if a != b {
		t.Errorf("Δcb differs across layouts: %d vs %d", a, b)
	}
	// Formula check: Nr*(δcb + 2k'|VC|) = 50*(20+2*7*2) = 50*48.
	if a != 50*48 {
		t.Errorf("Δcb = %d, want %d", a, 50*48)
	}
}

// TestCBBeatsEBForLargeNets: with SMART, central buffers use less space than
// edge buffers for the large design (Fig. 5c shows CBR clearly below EB
// curves at scale).
func TestCBBeatsEBForLargeNets(t *testing.T) {
	s := mustSN(t, 9, 8)
	n := mustNet(t, s, LayoutSubgroup)
	m := withSMART(ebVar)
	cb := Buffers{Scheme: CBR, VCs: 2, H: 9}.Eq6Flits(n)
	eb := m.Flits(n)
	if cb >= eb {
		t.Errorf("CBR-20 Δcb=%d should be below Δeb=%d for SN-L", cb, eb)
	}
}

// TestDeltaScaling checks Δeb = Θ(N·∛N) from Theorem 1: the exponent of Δeb
// growth between successive sizes should be near 4/3.
func TestDeltaScaling(t *testing.T) {
	m := ebVar
	// Theorem 1 states Δ = Θ(N·∛N) for N at the ideal concentration, i.e.
	// N ∝ q^3, so Δ ∝ q^4: the growth exponent in q should approach 4.
	type pt struct{ q, d float64 }
	var pts []pt
	for _, q := range []int{5, 9, 13} {
		s := mustSN(t, q, 1)
		net := mustNet(t, s, LayoutSubgroup)
		pts = append(pts, pt{float64(q), float64(m.Flits(net))})
	}
	for i := 1; i < len(pts); i++ {
		e := (math.Log(pts[i].d) - math.Log(pts[i-1].d)) / (math.Log(pts[i].q) - math.Log(pts[i-1].q))
		if e < 3.0 || e > 4.8 {
			t.Errorf("Δeb growth exponent in q = %.2f outside [3.0, 4.8] (want ≈4)", e)
		}
	}
}

// TestBufferPlan pins each scheme's sizes on wires of 1, 9 and 10 grid hops
// at H = 1 and H = 9: the edge buffer or input latch, the elastic latches
// and the central buffer, with the overrides each scheme reads.
func TestBufferPlan(t *testing.T) {
	for _, c := range []struct {
		name      string
		b         Buffers
		in, latch [3]int // at dist 1, 9, 10
		central   int
	}{
		{"eb", Buffers{Scheme: EB}, [3]int{5, 5, 5}, [3]int{}, 0},
		{"eb-edgecap", Buffers{Scheme: EB, EdgeCap: 4, CBCap: 40}, [3]int{4, 4, 4}, [3]int{}, 0},
		{"eb-large", Buffers{Scheme: EBLarge, EdgeCap: 4}, [3]int{15, 15, 15}, [3]int{}, 0},
		{"eb-var", Buffers{Scheme: EBVar, EdgeCap: 4}, [3]int{5, 21, 23}, [3]int{}, 0},
		{"eb-var-smart", Buffers{Scheme: EBVar, H: 9}, [3]int{5, 5, 7}, [3]int{}, 0},
		{"el", Buffers{Scheme: EL, CBCap: 40}, [3]int{1, 1, 1}, [3]int{2, 10, 11}, 0},
		{"el-smart", Buffers{Scheme: EL, H: 9}, [3]int{1, 1, 1}, [3]int{2, 2, 3}, 0},
		{"cbr", Buffers{Scheme: CBR, EdgeCap: 4}, [3]int{1, 1, 1}, [3]int{2, 10, 11}, 20},
		{"cbr-40", Buffers{Scheme: CBR, CBCap: 40}, [3]int{1, 1, 1}, [3]int{2, 10, 11}, 40},
	} {
		for i, d := range []int{1, 9, 10} {
			if got := c.b.InputCap(d); got != c.in[i] {
				t.Errorf("%s: InputCap(%d) = %d, want %d", c.name, d, got, c.in[i])
			}
			if got := c.b.LatchCap(d); got != c.latch[i] {
				t.Errorf("%s: LatchCap(%d) = %d, want %d", c.name, d, got, c.latch[i])
			}
		}
		if got := c.b.CentralCap(); got != c.central {
			t.Errorf("%s: CentralCap = %d, want %d", c.name, got, c.central)
		}
	}
}
