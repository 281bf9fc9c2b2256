package exp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/slimnoc"
)

// TestPricesTheSimulatedDesign pins that a run is priced as its engine
// allocated it: at the buffer plan of its own scheme, VC count, SMART hop
// factor and capacity overrides (the engine side of that plan is pinned by
// internal/sim's TestEngineAllocatesThePlan) — in priced and in the static
// power behind throughputPerPower.
func TestPricesTheSimulatedDesign(t *testing.T) {
	n, err := preset("sn_subgr_200")
	if err != nil {
		t.Fatal(err)
	}
	buffering := func(scheme string, edgeCap, cbCap int) slimnoc.BufferingSpec {
		return slimnoc.BufferingSpec{Scheme: scheme, EdgeCap: edgeCap, CBCap: cbCap}
	}
	cases := []struct {
		name string
		spec slimnoc.RunSpec
		want core.Buffers
	}{
		{"eb", slimnoc.RunSpec{}, core.Buffers{Scheme: core.EB, VCs: 2, H: 1}},
		{"eb-smart", slimnoc.RunSpec{SMART: true}, core.Buffers{Scheme: core.EB, VCs: 2, H: 9}},
		{"eb-edgecap-4vcs", slimnoc.RunSpec{Routing: slimnoc.RoutingSpec{VCs: 4}, Buffering: buffering("eb", 3, 0)},
			core.Buffers{Scheme: core.EB, VCs: 4, H: 1, EdgeCap: 3}},
		{"eb-large-h2", slimnoc.RunSpec{HopFactor: 2, Buffering: buffering("eblarge", 0, 0)},
			core.Buffers{Scheme: core.EBLarge, VCs: 2, H: 2}},
		{"eb-var-smart", slimnoc.RunSpec{SMART: true, Buffering: buffering("eb-var", 0, 0)},
			core.Buffers{Scheme: core.EBVar, VCs: 2, H: 9}},
		{"el-3vcs", slimnoc.RunSpec{Routing: slimnoc.RoutingSpec{VCs: 3}, Buffering: buffering("el", 0, 0)},
			core.Buffers{Scheme: core.EL, VCs: 3, H: 1}},
		{"cbr-40", slimnoc.RunSpec{Buffering: buffering("cbr", 0, 40)}, core.Buffers{Scheme: core.CBR, VCs: 2, H: 1, CBCap: 40}},
		{"cbr-default-smart", slimnoc.RunSpec{SMART: true, Buffering: buffering("CBR", 0, 0)},
			core.Buffers{Scheme: core.CBR, VCs: 2, H: 9}},
	}
	t45 := power.Tech45()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.spec.Network = slimnoc.NetworkSpec{Preset: "sn_subgr_200"}
			r := &slimnoc.Result{
				Spec:    c.spec.Normalized(),
				Metrics: slimnoc.Metrics{Throughput: 0.2, AvgHops: 2.5},
			}
			buf := power.Buffers(n, c.want, flitBits)
			p, err := priced(r)
			if err != nil || p.buf != buf {
				t.Fatalf("priced = %+v, %v; want %+v", p.buf, err, buf)
			}
			act := power.ActivityOf(n, 0.2, 2.5, t45, flitBits)
			want := power.ThroughputPerPower(act.FlitsPerCycle, n.CycleTimeNs,
				power.Static(n, buf, t45), power.Dynamic(act, t45))
			if got := throughputPerPower(p, t45); got != want {
				t.Errorf("throughputPerPower = %g, want %g", got, want)
			}
		})
	}
}
