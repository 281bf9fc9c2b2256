package slimnoc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"repro/slimnoc"
	"repro/slimnoc/store"
)

// The smallest end-to-end use of the facade: describe the paper's SN-S
// design (200 nodes, 50 routers, diameter 2) as a declarative run spec,
// run it with progress streaming, and show that the spec round-trips
// through JSON and reproduces the same metrics.
func Example() {
	// q=5 gives 2q^2 = 50 routers; with concentration p=4 that is 200
	// cores (§3.4, SN-S), placed with the subgroup layout, under uniform
	// random traffic.
	spec := slimnoc.RunSpec{
		Name:    "quickstart-sn-s",
		Network: slimnoc.NetworkSpec{Topology: "sn", Q: 5, Conc: 4, Layout: "subgr"},
		Traffic: slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.1},
		Sim:     slimnoc.SimSpec{WarmupCycles: 2000, MeasureCycles: 10000, DrainCycles: 10000, Seed: 1},
	}
	res, err := slimnoc.Run(context.Background(), spec,
		slimnoc.WithProgress(8000, func(p slimnoc.Progress) {
			fmt.Printf("... cycle %d/%d, %d packets delivered\n", p.Cycle, p.TotalCycles, p.Delivered)
		}))
	if err != nil {
		log.Fatal(err)
	}
	n, m := res.Network, res.Metrics
	fmt.Printf("SN-S: %d routers, %d nodes, network radix %d, diameter %d\n",
		n.Routers, n.Nodes, n.NetworkRadix, n.Diameter)
	fmt.Printf("RND at 0.10: latency %.1f cycles, throughput %.3f, avg hops %.2f\n",
		m.AvgLatencyCycles, m.Throughput, m.AvgHops)

	// A spec is a document: serialize it, read it back, run it again.
	data, err := json.MarshalIndent(res.Spec, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	reloaded, err := slimnoc.ParseSpec(data)
	if err != nil {
		log.Fatal(err)
	}
	again, err := slimnoc.Run(context.Background(), reloaded)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reproducible:", again.Metrics == res.Metrics)
	// Output:
	// ... cycle 0/22000, 0 packets delivered
	// ... cycle 8000/22000, 19560 packets delivered
	// ... cycle 16000/22000, 32874 packets delivered
	// SN-S: 50 routers, 200 nodes, network radix 7, diameter 2
	// RND at 0.10: latency 30.3 cycles, throughput 0.099, avg hops 1.83
	// reproducible: true
}

// A campaign runs a declarative grid of points on a worker pool. Every
// point's seed is fixed when the sweep expands, so a serial and a parallel
// run return the same metrics. With a result store attached, a campaign
// interrupted mid-sweep resumes where it stopped and returns the result
// set of an uninterrupted run.
func ExampleCampaign_Run() {
	sweep := slimnoc.SweepSpec{
		Name: "fig12-mini",
		Base: slimnoc.RunSpec{
			SMART: true,
			Sim:   slimnoc.SimSpec{WarmupCycles: 500, MeasureCycles: 1500, DrainCycles: 2000, Seed: 1},
		},
		Axes: slimnoc.SweepAxes{
			Presets:  []string{"sn_subgr_54", "fbf54", "t2d54"},
			Patterns: []string{"rnd", "adv1"},
			Loads:    []float64{0.02, 0.06, 0.12},
		},
	}
	points, err := sweep.Points()
	if err != nil {
		log.Fatal(err)
	}
	metrics := func(results []slimnoc.PointResult) string {
		var b bytes.Buffer
		for _, p := range results {
			if p.Err != nil {
				log.Fatal(p.Err)
			}
			m, _ := json.Marshal(p.Result.Metrics)
			b.Write(m)
		}
		return b.String()
	}
	serial, err := slimnoc.NewCampaign(slimnoc.WithJobs(1)).Run(context.Background(), points)
	if err != nil {
		log.Fatal(err)
	}
	parallel, err := slimnoc.NewCampaign(slimnoc.WithJobs(4)).Run(context.Background(), points)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d points; serial and parallel metrics identical: %v\n",
		len(points), metrics(serial) == metrics(parallel))
	// Axes expand network-slowest and load-fastest: one row per network
	// and pattern, the average latency in cycles at each load.
	fmt.Printf("%-12s %-7s %6.2f %6.2f %6.2f\n", "network", "pattern", 0.02, 0.06, 0.12)
	for i := 0; i < len(serial); i += 3 {
		fmt.Printf("%-12s %-7s", serial[i].Spec.Network.Preset, serial[i].Spec.Traffic.Pattern)
		for _, p := range serial[i : i+3] {
			if m := p.Result.Metrics; m.Saturated {
				fmt.Printf(" %6s", "sat")
			} else {
				fmt.Printf(" %6.1f", m.AvgLatencyCycles)
			}
		}
		fmt.Println()
	}

	// Interrupt a store-backed campaign after its first completed point,
	// as Ctrl-C would: every finished point is already durable.
	dir, err := os.MkdirTemp("", "campaign")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "store.jsonl")
	st, err := store.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	_, err = slimnoc.NewCampaign(
		slimnoc.WithJobs(2),
		slimnoc.WithStore(st),
		slimnoc.WithOnPoint(func(slimnoc.PointResult) { once.Do(cancel) }),
	).Run(ctx, points)
	fmt.Println("interrupted:", err)
	st.Close()

	// Resume from the same store: stored points are served, the rest run.
	st, err = store.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	resumed, err := slimnoc.NewCampaign(slimnoc.WithJobs(2), slimnoc.WithStore(st)).Run(context.Background(), points)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("resumed metrics identical to the cold run:", metrics(resumed) == metrics(serial))
	// Output:
	// 18 points; serial and parallel metrics identical: true
	// network      pattern   0.02   0.06   0.12
	// sn_subgr_54  rnd       13.3   13.7   14.7
	// sn_subgr_54  adv1      14.1   14.7   16.9
	// fbf54        rnd       12.8   13.3   13.7
	// fbf54        adv1      13.2   13.6   14.5
	// t2d54        rnd       15.4   15.8   18.8
	// t2d54        adv1      20.2   32.2  676.2
	// interrupted: context canceled
	// resumed metrics identical to the cold run: true
}
