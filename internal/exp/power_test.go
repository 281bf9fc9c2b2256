package exp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/slimnoc"
)

// TestPricesTheSimulatedDesign pins that a run is priced as its spec built
// it: a non-SMART run with non-SMART edge buffers, a SMART run with SMART
// ones, and a cbr run with central buffers of its capacity (the engine's 20
// flits when the spec names none) — in bufferFor and in the static power
// behind throughputPerPower.
func TestPricesTheSimulatedDesign(t *testing.T) {
	n, err := preset("sn_subgr_200")
	if err != nil {
		t.Fatal(err)
	}
	m := core.DefaultBufferModel()
	cases := []struct {
		name string
		spec slimnoc.RunSpec
		want power.BufferConfig
	}{
		{"eb", slimnoc.RunSpec{}, power.EdgeBufferConfig(n, m, flitBits)},
		{"eb-smart", slimnoc.RunSpec{SMART: true}, power.EdgeBufferConfig(n, m.WithSMART(), flitBits)},
		{"cbr-40", slimnoc.RunSpec{Buffering: slimnoc.BufferingSpec{Scheme: "cbr", CBCap: 40}},
			power.CentralBufferConfig(n, m, 40, flitBits)},
		{"cbr-default-smart", slimnoc.RunSpec{SMART: true, Buffering: slimnoc.BufferingSpec{Scheme: "CBR"}},
			power.CentralBufferConfig(n, m.WithSMART(), 20, flitBits)},
	}
	t45 := power.Tech45()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.spec.Network = slimnoc.NetworkSpec{Preset: "sn_subgr_200"}
			r := &slimnoc.Result{
				Spec:    c.spec.Normalized(),
				Metrics: slimnoc.Metrics{Throughput: 0.2, AvgHops: 2.5},
			}
			if got := bufferFor(n, r.Spec); got != c.want {
				t.Errorf("bufferFor = %+v, want %+v", got, c.want)
			}
			act := power.ActivityOf(n, 0.2, 2.5, t45, flitBits)
			want := power.ThroughputPerPower(act.FlitsPerCycle, n.CycleTimeNs,
				power.Static(n, c.want, 2, t45), power.Dynamic(act, t45))
			got, err := throughputPerPower(r, t45)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("throughputPerPower = %g, want %g", got, want)
			}
		})
	}
}
