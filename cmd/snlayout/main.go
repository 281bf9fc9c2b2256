// Command snlayout analyses Slim NoC physical layouts: average wire length,
// buffer budgets, wiring constraints and distance distributions (the §3.3
// analyses behind Figs. 5 and 6). The network comes from the shared spec
// flags (-q/-p or a -spec file); every layout is compared.
//
// Usage:
//
//	snlayout -q 9 -p 8
//	snlayout -q 5 -p 4 -dist
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/slimnoc"
)

func main() {
	sf := slimnoc.NewSpecFlags().
		BindCommon(flag.CommandLine).
		BindNetwork(flag.CommandLine)
	dist := flag.Bool("dist", false, "print distance distributions (Fig. 6)")
	flag.Parse()

	defaults := slimnoc.DefaultSpec()
	defaults.Network = slimnoc.NetworkSpec{Topology: "sn", Q: 5}
	spec, err := sf.Spec(defaults)
	if err != nil {
		fatal(err)
	}
	spec.Network, err = slimnoc.ExpandNetwork(spec.Network)
	if err != nil {
		fatal(err)
	}
	if spec.Network.Topology != "sn" {
		fatal(fmt.Errorf("snlayout analyses Slim NoC layouts only, got topology %q", spec.Network.Topology))
	}
	build := func(layout string) *slimnoc.Network {
		ns := spec.Network
		ns.Topology = "sn"
		ns.Layout = layout
		net, _, err := slimnoc.BuildNetwork(ns)
		if err != nil {
			fatal(err)
		}
		return net
	}

	m := core.DefaultBufferModel()
	if spec.SMART {
		m = m.WithSMART()
	}
	ref := build("subgr")
	fmt.Printf("Slim NoC q=%d: N=%d Nr=%d k'=%d (buffers sized with H=%d)\n\n",
		spec.Network.Q, ref.N(), ref.Nr, ref.NetworkRadix(), m.H)
	fmt.Printf("%-10s %8s %10s %12s %12s %10s\n",
		"layout", "die", "avg M", "Δeb [flits]", "Δcb20", "max W")
	for _, l := range slimnoc.Layouts() {
		net := build(l)
		x, y := net.GridDims()
		cost := core.CostOf(net, m, 20)
		fmt.Printf("%-10s %8s %10.2f %12d %12d %10d\n",
			"sn_"+l, fmt.Sprintf("%dx%d", x, y), cost.M, cost.TotalEB,
			cost.TotalCB, cost.MaxWires)
	}

	fmt.Println("\nwiring constraints (Eq. 3):")
	for _, wc := range core.WiringConstraints() {
		ok, got := core.SatisfiesConstraint(ref, wc)
		status := "OK"
		if !ok {
			status = "VIOLATED"
		}
		fmt.Printf("  %-5s W=%6d observed=%5d  %s\n", wc.Node, wc.MaxWires(), got, status)
	}

	if *dist {
		fmt.Println("\ndistance distributions (probability per 2-wide bin):")
		for _, l := range []string{"gr", "subgr"} {
			net := build(l)
			fmt.Printf("  sn_%s: ", l)
			for i, pr := range core.DistanceDistribution(net) {
				fmt.Printf("%d-%d:%.3f ", 2*i+1, 2*i+2, pr)
			}
			fmt.Println()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snlayout:", err)
	os.Exit(1)
}
