// Design-space exploration: walks Table 2 to pick a Slim NoC for a target
// core count, compares all the layouts with the §3.2 cost models,
// verifies the Eq. 3 wiring constraints, budgets the chip at 22 nm, and
// validates the chosen design with a short simulation through the slimnoc
// facade — the §3.4 workflow a chip architect would follow.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/power"
	"repro/slimnoc"
)

func main() {
	const targetCores = 1024

	// 1. Enumerate feasible configurations (Table 2) and pick one whose N
	//    matches the target.
	var pick *core.ConfigRow
	for _, r := range core.EnumerateConfigs(1300) {
		if r.N == targetCores {
			r := r
			pick = &r
			break
		}
	}
	if pick == nil {
		log.Fatalf("no Slim NoC configuration with %d cores", targetCores)
	}
	fmt.Printf("target %d cores -> q=%d (k'=%d, p=%d, %d routers, power-of-two N: %v)\n",
		targetCores, pick.Q, pick.KPrime, pick.P, pick.Nr, pick.PowerOfTwoN)

	build := func(layout string) *slimnoc.Network {
		net, _, err := slimnoc.BuildNetwork(slimnoc.NetworkSpec{
			Topology: "sn", Q: pick.Q, Conc: pick.P, Layout: layout,
		})
		if err != nil {
			log.Fatal(err)
		}
		return net
	}

	// 2. Compare layouts with the cost model (§3.2.3).
	model := core.DefaultBufferModel()
	fmt.Println("\nlayout comparison (no SMART):")
	fmt.Printf("  %-10s %8s %8s %12s %8s\n", "layout", "die", "M", "Δeb [flits]", "max W")
	best := ""
	bestM := -1.0
	for _, l := range slimnoc.Layouts() {
		net := build(l)
		x, y := net.GridDims()
		m := net.AvgWireLength()
		fmt.Printf("  %-10s %8s %8.2f %12d %8d\n",
			"sn_"+l, fmt.Sprintf("%dx%d", x, y), m,
			model.TotalEdgeBuffers(net), core.MaxWireCrossing(net))
		if bestM < 0 || m < bestM {
			best, bestM = l, m
		}
	}
	fmt.Printf("  -> choosing sn_%s (lowest average wire length)\n", best)

	// 3. Verify manufacturability (Eq. 3) at every technology node.
	net := build(best)
	fmt.Println("\nwiring constraints:")
	for _, wc := range core.WiringConstraints() {
		ok, got := core.SatisfiesConstraint(net, wc)
		fmt.Printf("  %-5s observed %5d vs W=%6d -> ok=%v\n", wc.Node, got, wc.MaxWires(), ok)
	}

	// 4. Budget the chip: area and leakage for edge- vs central-buffer
	//    routers at 22 nm.
	t22 := power.Tech22()
	eb := power.EdgeBufferConfig(net, model, 128)
	cb := power.CentralBufferConfig(net, model, 20, 128)
	fmt.Println("\n22nm budget (2 VCs, 128-bit flits):")
	for _, c := range []struct {
		name string
		buf  power.BufferConfig
	}{{"edge buffers (EB-Var)", eb}, {"central buffers (CBR-20)", cb}} {
		a := power.Area(net, c.buf, 2, t22)
		s := power.Static(net, c.buf, 2, t22)
		fmt.Printf("  %-24s area %.3f cm^2, leakage %.2f W (%.0f flits of storage)\n",
			c.name, a.Total(), s.Total(), c.buf.TotalFlits)
	}

	// 5. Validate the pick end-to-end: a short uniform-random run through
	//    the facade on the exact chosen network.
	spec := slimnoc.RunSpec{
		Name:    fmt.Sprintf("designspace-sn-%d", targetCores),
		Network: slimnoc.NetworkSpec{Topology: "sn", Q: pick.Q, Conc: pick.P, Layout: best},
		Traffic: slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.06},
		Sim:     slimnoc.QuickSim(),
	}
	spec.Sim.Seed = 1
	res, err := slimnoc.Run(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvalidation run (RND at 0.06): latency %.1f cycles, throughput %.3f, saturated=%v\n",
		res.Metrics.AvgLatencyCycles, res.Metrics.Throughput, res.Metrics.Saturated)
}
