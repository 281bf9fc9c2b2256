package power

import (
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// ebVar is the §3.2.2 EB-Var design at the paper's 2 VCs, without SMART.
var ebVar = core.Buffers{Scheme: core.EBVar, VCs: 2, H: 1}

func buildSN(t testing.TB, q, p int, l core.Layout) *topo.Network {
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

func TestAreaPositiveAndDecomposed(t *testing.T) {
	n := buildSN(t, 5, 4, core.LayoutSubgroup)
	buf := Buffers(n, ebVar, 128)
	a := Area(n, buf, Tech45())
	if a.ARouters <= 0 || a.IRouters <= 0 || a.RRWires <= 0 || a.RNWires <= 0 {
		t.Fatalf("area components must be positive: %+v", a)
	}
	if a.Total() <= a.ARouters {
		t.Error("total must exceed any single component")
	}
	per := a.PerNodeCM2(n.N())
	if per.Total()*float64(n.N())-a.Total() > 1e-9 {
		t.Error("per-node normalisation broken")
	}
}

// TestSNBeatsFBFInAreaAndPower reproduces the §6 summary for N≈200: SN
// reduces area (paper: >36%) and static power (>49%) versus the
// full-bandwidth FBF. We accept broad bands since constants are calibrated,
// not fitted.
func TestSNBeatsFBFInAreaAndPower(t *testing.T) {
	m := ebVar
	sn := buildSN(t, 5, 4, core.LayoutSubgroup)
	fbf := topo.FBF(10, 5, 4) // fbf4: same Nr=50, N=200
	t45 := Tech45()

	snArea := Area(sn, Buffers(sn, m, 128), t45).Total()
	fbfArea := Area(fbf, Buffers(fbf, m, 128), t45).Total()
	if snArea >= fbfArea {
		t.Errorf("SN area %.4f should be below FBF %.4f", snArea, fbfArea)
	}
	red := 1 - snArea/fbfArea
	if red < 0.15 || red > 0.70 {
		t.Errorf("SN area reduction vs FBF = %.0f%%, expected roughly 30-50%%", red*100)
	}

	snStat := Static(sn, Buffers(sn, m, 128), t45).Total()
	fbfStat := Static(fbf, Buffers(fbf, m, 128), t45).Total()
	if snStat >= fbfStat {
		t.Errorf("SN static %.4f should be below FBF %.4f", snStat, fbfStat)
	}
}

// TestSNUsesMoreThanLowRadix: the paper concedes SN uses more area and
// static power than T2D/CM (§6) — the model must reproduce that direction
// too.
func TestSNUsesMoreThanLowRadix(t *testing.T) {
	m := ebVar
	sn := buildSN(t, 5, 4, core.LayoutSubgroup)
	t2d := topo.Torus2D(10, 5, 4)
	t45 := Tech45()
	snArea := Area(sn, Buffers(sn, m, 128), t45).Total()
	t2dArea := Area(t2d, Buffers(t2d, m, 128), t45).Total()
	if snArea <= t2dArea {
		t.Errorf("SN area %.4f should exceed torus %.4f", snArea, t2dArea)
	}
}

// TestLargeScaleSNvsFBF: at N=1296 the paper reports SN cutting area by up
// to ~33% and static power by up to ~55% vs FBF.
func TestLargeScaleSNvsFBF(t *testing.T) {
	m := ebVar
	m.H = 9
	sn := buildSN(t, 9, 8, core.LayoutGroup)
	fbf := topo.FBF(18, 9, 8) // fbf8
	t45 := Tech45()
	snArea := Area(sn, Buffers(sn, m, 128), t45).Total()
	fbfArea := Area(fbf, Buffers(fbf, m, 128), t45).Total()
	if snArea >= fbfArea {
		t.Errorf("SN-L area %.4f should be below fbf8 %.4f", snArea, fbfArea)
	}
	snStat := Static(sn, Buffers(sn, m, 128), t45).Total()
	fbfStat := Static(fbf, Buffers(fbf, m, 128), t45).Total()
	red := 1 - snStat/fbfStat
	if red < 0.2 {
		t.Errorf("SN-L static reduction vs fbf8 = %.0f%%, paper reports ~41-55%%", red*100)
	}
}

// TestCentralBufferCutsBufferArea: CBR-20 must reduce the buffer (active
// router) area versus EB-Var sizing for SN-L, one of §4's selling points.
func TestCentralBufferCutsBufferArea(t *testing.T) {
	m := ebVar
	sn := buildSN(t, 9, 8, core.LayoutGroup)
	t45 := Tech45()
	eb := Area(sn, Buffers(sn, m, 128), t45)
	cb := Area(sn, Buffers(sn, core.Buffers{Scheme: core.CBR, VCs: 2, H: 1}, 128), t45)
	if cb.ARouters >= eb.ARouters {
		t.Errorf("CBR active area %.4f should be below EB %.4f", cb.ARouters, eb.ARouters)
	}
}

func TestStaticScalesWithBuffers(t *testing.T) {
	n := buildSN(t, 5, 4, core.LayoutSubgroup)
	t45 := Tech45()
	small := Static(n, BufferConfig{TotalFlits: 100, FlitBits: 128}, t45).Total()
	big := Static(n, BufferConfig{TotalFlits: 10000, FlitBits: 128}, t45).Total()
	if big <= small {
		t.Error("leakage must grow with buffer storage")
	}
}

func TestDynamicScalesWithActivity(t *testing.T) {
	t45 := Tech45()
	base := Activity{FlitsPerCycle: 10, AvgHops: 2, AvgWireMM: 5, CycleNs: 0.5, FlitBits: 128}
	double := base
	double.FlitsPerCycle = 20
	d1, d2 := Dynamic(base, t45).Total(), Dynamic(double, t45).Total()
	if d2 <= d1 {
		t.Error("dynamic power must grow with traffic")
	}
	ratio := d2 / d1
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("dynamic power should be ~linear in activity, ratio %.2f", ratio)
	}
}

func Test22nmShrinksAreaAndEnergy(t *testing.T) {
	n := buildSN(t, 5, 4, core.LayoutSubgroup)
	m := ebVar
	buf := Buffers(n, m, 128)
	a45 := Area(n, buf, Tech45()).Total()
	a22 := Area(n, buf, Tech22()).Total()
	if a22 >= a45 {
		t.Error("22nm area should shrink")
	}
	// Wires shrink less than logic: wire share grows at 22nm (§5.5).
	r45 := Area(n, buf, Tech45())
	r22 := Area(n, buf, Tech22())
	share45 := (r45.RRWires + r45.RNWires) / r45.Total()
	share22 := (r22.RRWires + r22.RNWires) / r22.Total()
	if share22 <= share45 {
		t.Errorf("wire area share should grow at 22nm: %.2f -> %.2f", share45, share22)
	}
}

func TestThroughputPerPower(t *testing.T) {
	st := StaticReport{Routers: 1, Wires: 1}
	dy := DynamicReport{Buffers: 1, Crossbars: 1, Wires: 1}
	v := ThroughputPerPower(10, 0.5, st, dy)
	if v <= 0 {
		t.Fatal("throughput/power must be positive")
	}
	// Halving power doubles the metric.
	st2 := StaticReport{Routers: 0.5, Wires: 0.5}
	dy2 := DynamicReport{Buffers: 0.5, Crossbars: 0.5, Wires: 0.5}
	if v2 := ThroughputPerPower(10, 0.5, st2, dy2); v2 < 1.9*v || v2 > 2.1*v {
		t.Errorf("expected ~2x, got %.2f", v2/v)
	}
	if ThroughputPerPower(10, 0.5, StaticReport{}, DynamicReport{}) != 0 {
		t.Error("zero power must return 0, not Inf")
	}
}

func TestEnergyDelay(t *testing.T) {
	st := StaticReport{Routers: 2}
	dy := DynamicReport{Wires: 3}
	edp := EnergyDelay(st, dy, 1e-6, 20e-9)
	want := 5.0 * 1e-6 * 20e-9
	if edp < want*0.999 || edp > want*1.001 {
		t.Errorf("EDP = %v, want %v", edp, want)
	}
}

func TestActivityOf(t *testing.T) {
	n := buildSN(t, 5, 4, core.LayoutSubgroup)
	act := ActivityOf(n, 0.1, 1.8, Tech45(), 128)
	if act.FlitsPerCycle != 0.1*float64(n.N()) {
		t.Errorf("FlitsPerCycle = %v", act.FlitsPerCycle)
	}
	if act.AvgWireMM <= 0 || act.CycleNs != 0.5 {
		t.Errorf("bad activity %+v", act)
	}
}

func TestTileSide(t *testing.T) {
	if got := Tech45().TileSideMM(4); got != 4.0 {
		t.Errorf("45nm tile for p=4 = %v, want 4.0 (sqrt(4*4))", got)
	}
	if got := Tech22().TileSideMM(1); got != 1.0 {
		t.Errorf("22nm tile for p=1 = %v, want 1.0", got)
	}
	if Tech45().TileSideMM(0) != 2.0 {
		t.Error("p=0 should clamp to one core")
	}
}
