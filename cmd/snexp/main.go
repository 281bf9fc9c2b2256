// Command snexp prints the paper's derived tables: it runs a manifest
// figure's simulation grid (none, for the analytic artifacts) and renders
// the tables its Derive computes from the point results and the analytical
// models. With no arguments it lists the figures that have derived tables;
// -exp runs one, -all runs every one. Scale and seed come from the shared
// spec flags (-full, -seed, or a -spec file's sim section); -jobs sets the
// simulation worker count (0 = every CPU — per-point results are identical
// at any job count). Ctrl-C cancels the in-flight grid and exits 130.
//
// Usage:
//
//	snexp -list
//	snexp -exp fig12 [-full] [-csv] [-jobs 4]
//	snexp -all [-full]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/exp"
	"repro/internal/stats"
	"repro/slimnoc"
)

func main() {
	sf := slimnoc.NewSpecFlags().BindCommon(flag.CommandLine)
	var (
		list = flag.Bool("list", false, "list experiments")
		id   = flag.String("exp", "", "experiment ID to run")
		all  = flag.Bool("all", false, "run every experiment")
		csv  = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jobs = flag.Int("jobs", 0, "parallel simulation workers (0 = NumCPU, 1 = serial)")
	)
	flag.Parse()

	spec, err := sf.Spec(slimnoc.DefaultSpec())
	if err != nil {
		fmt.Fprintln(os.Stderr, "snexp:", err)
		os.Exit(1)
	}
	// Quick controls sweep density; the spec's cycle counts pass through
	// verbatim.
	full := slimnoc.FullSim()
	opts := exp.Options{
		Quick:         spec.Sim.MeasureCycles < full.MeasureCycles,
		Seed:          spec.Sim.Seed,
		Jobs:          *jobs,
		WarmupCycles:  spec.Sim.WarmupCycles,
		MeasureCycles: spec.Sim.MeasureCycles,
		DrainCycles:   spec.Sim.DrainCycles,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	switch {
	case *list || (*id == "" && !*all):
		fmt.Println("Available experiments:")
		for _, f := range derived(opts) {
			fmt.Printf("  %-8s %s (%s)\n", f.ID, f.Title, f.Section)
		}
	case *all:
		for _, f := range derived(opts) {
			fmt.Printf("== running %s: %s (%s)\n", f.ID, f.Title, f.Section)
			run(ctx, f, opts, *csv)
		}
	default:
		f, err := exp.FigureByID(*id, opts)
		if err != nil || f.Derive == nil {
			var ids []string
			for _, f := range derived(opts) {
				ids = append(ids, f.ID)
			}
			fmt.Fprintf(os.Stderr, "snexp: unknown experiment %q (have %s)\n", *id, strings.Join(ids, ", "))
			os.Exit(1)
		}
		run(ctx, f, opts, *csv)
	}
}

// derived returns the manifest figures that have derived tables, in
// manifest order.
func derived(opts exp.Options) []exp.Figure {
	var out []exp.Figure
	for _, f := range exp.Manifest(opts) {
		if f.Derive != nil {
			out = append(out, f)
		}
	}
	return out
}

// run reproduces one figure and prints its derived tables; it exits 130
// when interrupted and 1 on any other failure.
func run(ctx context.Context, f exp.Figure, opts exp.Options, csv bool) {
	r, err := exp.RunFigure(ctx, f, opts)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "snexp: interrupted:", err)
		os.Exit(130)
	}
	var tables []*stats.Table
	if err == nil {
		tables, err = f.Derive(r)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "snexp: %s: %v\n", f.ID, err)
		os.Exit(1)
	}
	for _, t := range tables {
		if csv {
			fmt.Println(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
}
