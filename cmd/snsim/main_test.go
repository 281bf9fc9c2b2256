package main

import (
	"bytes"
	"errors"
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
