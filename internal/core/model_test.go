package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRTT(t *testing.T) {
	m := DefaultBufferModel()
	// Tij = 2*ceil(d/H) + 3 with H=1.
	cases := map[int]int{1: 5, 2: 7, 5: 13, 10: 23}
	for d, want := range cases {
		if got := m.RTT(d); got != want {
			t.Errorf("RTT(%d) = %d, want %d", d, got, want)
		}
	}
	sm := m.WithSMART()
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
	m := DefaultBufferModel()
	sm := m.WithSMART()
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
	m := DefaultBufferModel() // 2 VCs, 1 flit/cycle
	if got := m.EdgeBufferFlits(1); got != 10 {
		t.Errorf("EdgeBufferFlits(1) = %d, want 10 (RTT 5 x 2 VCs)", got)
	}
	if got := m.EdgeBufferFlits(5); got != 26 {
		t.Errorf("EdgeBufferFlits(5) = %d, want 26", got)
	}
}

// TestLayoutReducesTotalBuffers: sn_subgr/sn_gr reduce Δeb versus sn_basic
// (the paper reports ≈18% for sn_gr on the sweep).
func TestLayoutReducesTotalBuffers(t *testing.T) {
	m := DefaultBufferModel()
	for _, q := range []int{5, 9} {
		s := mustSN(t, q, 1)
		basic := m.TotalEdgeBuffers(mustNet(t, s, LayoutBasic))
		subgr := m.TotalEdgeBuffers(mustNet(t, s, LayoutSubgroup))
		if subgr >= basic {
			t.Errorf("q=%d: Δeb subgr=%d not below basic=%d", q, subgr, basic)
		}
	}
}

// TestSMARTReducesBuffers: with SMART, total edge buffers shrink.
func TestSMARTReducesBuffers(t *testing.T) {
	s := mustSN(t, 9, 8)
	n := mustNet(t, s, LayoutSubgroup)
	m := DefaultBufferModel()
	if sm := m.WithSMART(); sm.TotalEdgeBuffers(n) >= m.TotalEdgeBuffers(n) {
		t.Error("SMART should reduce Δeb")
	}
}

// TestCentralBufferIndependentOfWires: Δcb does not depend on layout (it is
// a function of Nr, k' and |VC| only) — the §3.3.1 observation that CBs give
// the lowest and layout-independent buffer budget.
func TestCentralBufferIndependentOfWires(t *testing.T) {
	s := mustSN(t, 5, 4)
	m := DefaultBufferModel()
	a := m.TotalCentralBuffers(mustNet(t, s, LayoutBasic), 20)
	b := m.TotalCentralBuffers(mustNet(t, s, LayoutSubgroup), 20)
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
	m := DefaultBufferModel().WithSMART()
	cb := m.TotalCentralBuffers(n, 20)
	eb := m.TotalEdgeBuffers(n)
	if cb >= eb {
		t.Errorf("CBR-20 Δcb=%d should be below Δeb=%d for SN-L", cb, eb)
	}
}

// TestDeltaScaling checks Δeb = Θ(N·∛N) from Theorem 1: the exponent of Δeb
// growth between successive sizes should be near 4/3.
func TestDeltaScaling(t *testing.T) {
	m := DefaultBufferModel()
	// Theorem 1 states Δ = Θ(N·∛N) for N at the ideal concentration, i.e.
	// N ∝ q^3, so Δ ∝ q^4: the growth exponent in q should approach 4.
	type pt struct{ q, d float64 }
	var pts []pt
	for _, q := range []int{5, 9, 13} {
		s := mustSN(t, q, 1)
		net := mustNet(t, s, LayoutSubgroup)
		pts = append(pts, pt{float64(q), float64(m.TotalEdgeBuffers(net))})
	}
	for i := 1; i < len(pts); i++ {
		e := (math.Log(pts[i].d) - math.Log(pts[i-1].d)) / (math.Log(pts[i].q) - math.Log(pts[i-1].q))
		if e < 3.0 || e > 4.8 {
			t.Errorf("Δeb growth exponent in q = %.2f outside [3.0, 4.8] (want ≈4)", e)
		}
	}
}
