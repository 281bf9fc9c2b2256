// Command snsim runs network simulations and prints their results. Single
// runs are described by slimnoc run specs: load one with -spec and/or
// override individual fields with flags, and persist the resolved spec with
// -save-spec for reproducible re-runs. Whole evaluation grids run as
// campaigns: -sweep loads a declarative sweep file, expands its axes into a
// cartesian product of points, and executes them on -jobs parallel workers,
// streaming per-point lines to stdout and (with -out) JSONL or (-csv-out)
// CSV records to files. Ctrl-C cancels the campaign and keeps the partial
// results.
//
// Usage:
//
//	snsim -net sn_subgr_200 -pattern rnd -rate 0.06 [-smart] [-scheme cbr]
//	snsim -net fbf3 -pattern adv1 -rate 0.24 -cycles 20000
//	snsim -net sn_subgr_200 -rate 0.06 -process burst -burst-len 8 -duty 0.25
//	snsim -net sn_subgr_200 -rate 0.06 -hotspot-frac 0.2 -size-mix bimodal
//	snsim -net sn_subgr_200 -process reqreply -window 4
//	snsim -spec run.json
//	snsim -net t2d9 -rate 0.12 -save-spec run.json
//	snsim -sweep sweep.json -jobs 8 -out results.jsonl
//	snsim -net sn_subgr_200 -rate 0.24 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/slimnoc"
)

func main() {
	sf := slimnoc.NewSpecFlags().
		BindCommon(flag.CommandLine).
		BindNetwork(flag.CommandLine).
		BindRun(flag.CommandLine)
	progress := flag.Bool("progress", false, "print periodic progress during the run")
	sweepPath := flag.String("sweep", "", "run a sweep campaign from this JSON file instead of a single point")
	jobs := flag.Int("jobs", 0, "campaign workers (0 = GOMAXPROCS, 1 = serial); -sweep only")
	outPath := flag.String("out", "", "write campaign results as JSONL to this file; -sweep only")
	csvPath := flag.String("csv-out", "", "write campaign results as CSV to this file; -sweep only")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()

	// Profile teardown must run before exiting, so the exit code travels
	// back out of run() instead of os.Exit firing mid-defer.
	os.Exit(run(sf, *progress, *sweepPath, *jobs, *outPath, *csvPath, *cpuProfile, *memProfile))
}

// run executes the selected mode with profiling wrapped around it and
// returns the process exit code. A failed profile write turns an otherwise
// successful run into a failure, so scripts never consume a missing or
// truncated profile.
func run(sf *slimnoc.SpecFlags, progress bool, sweepPath string, jobs int, outPath, csvPath, cpuProfile, memProfile string) (code int) {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if memProfile != "" {
		defer func() {
			if err := writeMemProfile(memProfile); err != nil && code == 0 {
				code = fail(err)
			}
		}()
	}

	if sweepPath != "" {
		// The single-run spec flags do not apply to a campaign: its points
		// come entirely from the sweep file. Reject them loudly instead of
		// silently running a different configuration than requested.
		sweepFlags := map[string]bool{"sweep": true, "jobs": true, "out": true,
			"csv-out": true, "cpuprofile": true, "memprofile": true}
		var conflicts []string
		flag.Visit(func(f *flag.Flag) {
			if !sweepFlags[f.Name] {
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			return fail(fmt.Errorf("%s do(es) not apply to -sweep mode; set those fields in the sweep file's base spec",
				strings.Join(conflicts, ", ")))
		}
		return runSweep(sweepPath, jobs, outPath, csvPath)
	}

	spec, err := sf.Spec(slimnoc.DefaultSpec())
	if err != nil {
		return fail(err)
	}
	var opts []slimnoc.Option
	if progress {
		opts = append(opts, slimnoc.WithProgress(0, func(p slimnoc.Progress) {
			fmt.Fprintf(os.Stderr, "cycle %d/%d: %d/%d packets delivered, %d flits in flight\n",
				p.Cycle, p.TotalCycles, p.Delivered, p.Generated, p.InFlight)
		}))
	}
	res, err := slimnoc.Run(context.Background(), spec, opts...)
	if err != nil {
		return fail(err)
	}
	printRun(os.Stdout, spec, res)
	return 0
}

// printRun prints the result of a run of spec. A run whose drain stalled with flits in
// flight (Metrics.DeadlockSuspected) measured no latency: it says so in
// place of the latency and names the deadlock in its state line.
func printRun(w io.Writer, spec slimnoc.RunSpec, res *slimnoc.Result) {
	n, m := res.Network, res.Metrics
	fmt.Fprintf(w, "network     %s (Nr=%d, N=%d, k'=%d, D=%d, cycle %.1fns)\n",
		n.Name, n.Routers, n.Nodes, n.NetworkRadix, n.Diameter, n.CycleTimeNs)
	desc := spec.Traffic.Pattern
	if toks := slimnoc.TrafficLabel(spec.Traffic); len(toks) > 0 {
		desc += " [" + strings.Join(toks, " ") + "]"
	}
	if spec.Traffic.Process == "reqreply" {
		fmt.Fprintf(w, "traffic     %s closed-loop (load self-throttles; offered below)\n", desc)
	} else {
		fmt.Fprintf(w, "traffic     %s at %.3f flits/node/cycle\n", desc, spec.Traffic.Rate)
	}
	if m.DeadlockSuspected {
		fmt.Fprintln(w, "latency     not measured (deadlock suspected)")
	} else {
		fmt.Fprintf(w, "latency     %.2f cycles (%.1f ns), p99 %.0f cycles\n",
			m.AvgLatencyCycles, m.AvgLatencyNs, m.P99LatencyCycles)
	}
	fmt.Fprintf(w, "throughput  %.4f flits/node/cycle (offered %.4f)\n", m.Throughput, m.OfferedLoad)
	fmt.Fprintf(w, "hops        %.2f avg\n", m.AvgHops)
	fmt.Fprintf(w, "packets     %d delivered of %d tracked\n", m.Delivered, m.Generated)
	switch {
	case m.DeadlockSuspected:
		fmt.Fprintf(w, "state       deadlock suspected: %d of %d tracked packets delivered, flits stalled through the drain\n",
			m.Delivered, m.Generated)
	case m.Saturated:
		fmt.Fprintln(w, "state       SATURATED")
	}
}

// sweepLine is one campaign point's progress line.
func sweepLine(p slimnoc.PointResult) string {
	if p.Err != nil {
		return fmt.Sprintf("  [%3d] %-40s ERROR %v", p.Index, p.Spec.Name, p.Err)
	}
	m := p.Result.Metrics
	lat, state := fmt.Sprintf("%8.2f", m.AvgLatencyCycles), ""
	switch {
	case m.DeadlockSuspected:
		lat = fmt.Sprintf("%8s", "--")
		state = fmt.Sprintf("  DEADLOCK SUSPECTED (%d of %d delivered)", m.Delivered, m.Generated)
	case m.Saturated:
		state = "  SATURATED"
	}
	return fmt.Sprintf("  [%3d] %-40s lat %s cyc  thr %.4f%s", p.Index, p.Spec.Name, lat, m.Throughput, state)
}

// runSweep executes a declarative sweep campaign and returns the exit code.
func runSweep(path string, jobs int, outPath, csvPath string) int {
	sweep, err := slimnoc.LoadSweep(path)
	if err != nil {
		return fail(err)
	}
	points, err := sweep.Points()
	if err != nil {
		return fail(err)
	}
	fmt.Printf("sweep %s: %d points\n", sweep.Name, len(points))

	copts := []slimnoc.CampaignOption{
		slimnoc.WithJobs(jobs),
		slimnoc.WithOnPoint(func(p slimnoc.PointResult) { fmt.Println(sweepLine(p)) }),
	}
	var files []*os.File
	for _, sink := range []struct {
		path string
		mk   func(f *os.File) slimnoc.Sink
	}{
		{outPath, func(f *os.File) slimnoc.Sink { return slimnoc.NewJSONLSink(f) }},
		{csvPath, func(f *os.File) slimnoc.Sink { return slimnoc.NewCSVSink(f) }},
	} {
		if sink.path == "" {
			continue
		}
		f, err := os.Create(sink.path)
		if err != nil {
			return fail(err)
		}
		files = append(files, f)
		copts = append(copts, slimnoc.WithSink(sink.mk(f)))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	results, err := slimnoc.RunCampaign(ctx, points, copts...)
	for _, f := range files {
		f.Close()
	}
	// A point is done only when it finished cleanly: a cancelled in-flight
	// point carries partial metrics alongside its error and must not count.
	done, failed := 0, 0
	for _, p := range results {
		switch {
		case p.Err == nil:
			done++
		case err == nil:
			failed++
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "snsim: campaign interrupted (%d of %d points done): %v\n",
			done, len(points), err)
		return 130
	}
	fmt.Printf("done: %d points (%d failed)\n", done, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// writeMemProfile snapshots the heap after the run.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows retained memory
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fail reports an error and returns the generic failure exit code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "snsim:", err)
	return 1
}
