package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/slimnoc"
)

// TestPrintRunDeadlock: a run the engine suspects of deadlock prints a
// deadlock state line with its delivered and tracked packets, and no
// latency reading; a healthy run prints its latency and no state line.
func TestPrintRunDeadlock(t *testing.T) {
	spec := slimnoc.DefaultSpec()
	dead := &slimnoc.Result{Metrics: slimnoc.Metrics{Generated: 399720, Saturated: true, DeadlockSuspected: true}}
	var out bytes.Buffer
	printRun(&out, spec, dead)
	got := out.String()
	for _, want := range []string{
		"latency     not measured (deadlock suspected)\n",
		"state       deadlock suspected: 0 of 399720 tracked packets delivered",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("deadlocked run: output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "0.00 cycles") || strings.Contains(got, "SATURATED") {
		t.Errorf("deadlocked run printed a latency or a plain saturation:\n%s", got)
	}

	out.Reset()
	printRun(&out, spec, &slimnoc.Result{Metrics: slimnoc.Metrics{AvgLatencyCycles: 32.1, Delivered: 10, Generated: 10}})
	if got := out.String(); !strings.Contains(got, "latency     32.10 cycles") || strings.Contains(got, "state") {
		t.Errorf("healthy run:\n%s", got)
	}
}

// TestSweepLine: a campaign point's line flags a suspected deadlock in
// place of its latency, a saturated point as before, and an error.
func TestSweepLine(t *testing.T) {
	point := func(m slimnoc.Metrics) slimnoc.PointResult {
		return slimnoc.PointResult{Index: 3, Spec: slimnoc.RunSpec{Name: "p"}, Result: &slimnoc.Result{Metrics: m}}
	}
	for _, c := range []struct {
		p    slimnoc.PointResult
		want string
	}{
		{point(slimnoc.Metrics{AvgLatencyCycles: 28.5, Throughput: 0.06}),
			"  [  3] p                                        lat    28.50 cyc  thr 0.0600"},
		{point(slimnoc.Metrics{AvgLatencyCycles: 400, Throughput: 0.3, Saturated: true}),
			"  [  3] p                                        lat   400.00 cyc  thr 0.3000  SATURATED"},
		{point(slimnoc.Metrics{Generated: 50, Saturated: true, DeadlockSuspected: true}),
			"  [  3] p                                        lat       -- cyc  thr 0.0000  DEADLOCK SUSPECTED (0 of 50 delivered)"},
		{slimnoc.PointResult{Index: 3, Spec: slimnoc.RunSpec{Name: "p"}, Err: errors.New("boom")},
			"  [  3] p                                        ERROR boom"},
	} {
		if got := sweepLine(c.p); got != c.want {
			t.Errorf("sweepLine = %q, want %q", got, c.want)
		}
	}
}

// TestWorkloadSmoke runs one short t2d54 point per temporal process and
// workload shape through the same path as the binary — flags bound to a
// fresh FlagSet, Spec, slimnoc.Run, printRun — and checks each prints a
// measured latency with no deadlock.
func TestWorkloadSmoke(t *testing.T) {
	for _, c := range []struct {
		process string
		flags   string
	}{
		{"bernoulli", "-pattern rnd -rate 0.05"},
		{"burst", "-pattern rnd -rate 0.05 -process burst -burst-len 8 -duty 0.25"},
		{"hotspot", "-pattern rnd -rate 0.05 -hotspot-frac 0.2 -hotspot-count 4 -size-mix bimodal"},
		{"reqreply", "-pattern rnd -process reqreply -window 4"},
	} {
		t.Run(c.process, func(t *testing.T) {
			fs := flag.NewFlagSet("snsim", flag.ContinueOnError)
			sf := slimnoc.NewSpecFlags().BindCommon(fs).BindNetwork(fs).BindRun(fs)
			args := append([]string{"-net", "t2d54", "-cycles", "500"}, strings.Fields(c.flags)...)
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			spec, err := sf.Spec(slimnoc.DefaultSpec())
			if err != nil {
				t.Fatal(err)
			}
			res, err := slimnoc.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			printRun(&out, spec, res)
			got := out.String()
			if !strings.Contains(got, "\nlatency     ") || strings.Contains(got, "deadlock") || res.Metrics.Delivered == 0 {
				t.Errorf("%s: want delivered packets, a measured latency and no deadlock:\n%s", c.flags, got)
			}
		})
	}
}

// TestRejectsNegativeCounts: a negative cycle count or hop factor, from a
// flag or from a spec file, exits 1 instead of running as the default or
// running nothing.
func TestRejectsNegativeCounts(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "negative.json")
	spec := `{"network":{"preset":"t2d54"},"sim":{"warmup_cycles":-75,"measure_cycles":-300,"drain_cycles":-300}}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-net", "t2d54", "-cycles", "-5"},
		{"-net", "t2d54", "-hop-factor", "-1"},
		{"-spec", specPath},
	} {
		fs := flag.NewFlagSet("snsim", flag.ContinueOnError)
		sf := slimnoc.NewSpecFlags().BindCommon(fs).BindNetwork(fs).BindRun(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if code := run(sf, false, "", 0, "", "", "", ""); code != 1 {
			t.Errorf("%v: exit code %d, want 1", args, code)
		}
	}
}
