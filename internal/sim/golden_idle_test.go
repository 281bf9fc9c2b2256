package sim_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// The idle-skip golden fixture pins full Results for the workloads the event
// calendar accelerates hardest: very low open-loop load, long-OFF bursty
// arrivals, and the window-stalled request-reply closed loop — the regimes
// where most cycles are dead and the calendar jumps them. The fixture was
// generated with the calendar ON; TestGoldenIdleCycleStep replays every case
// with Config.CycleStep forced and must match the same bytes, which is the
// standing proof that skipping is exact (the harness twin of diff_test.go's
// randomized corpus).
//
// Regenerate (only for an intentional, documented behaviour change):
//
//	go test ./internal/sim -run TestGoldenIdle -update-golden-idle
var updateGoldenIdle = flag.Bool("update-golden-idle", false, "rewrite the idle-skip golden fixture")

const goldenIdlePath = "testdata/golden_idle.json"

// goldenIdleCase is one pinned configuration: a buffer scheme crossed with
// an idle-heavy workload shape, on the SN q=5 p=4 subgroup network.
type goldenIdleCase struct {
	Name   string
	Scheme core.Scheme
	Shape  string // lowload | longoff | reqreply
}

func goldenIdleCases() []goldenIdleCase {
	var cases []goldenIdleCase
	for _, sc := range []struct {
		tag    string
		scheme core.Scheme
	}{
		{"eb", core.EB},
		{"cbr", core.CBR},
		{"el", core.EL},
	} {
		for _, shape := range []string{"lowload", "longoff", "reqreply"} {
			cases = append(cases, goldenIdleCase{
				Name:   fmt.Sprintf("%s_%s", sc.tag, shape),
				Scheme: sc.scheme,
				Shape:  shape,
			})
		}
	}
	return cases
}

// runGoldenIdleCase executes one case. jobs selects the engine-domain count
// and cycleStep forces classic stepping — the fixture must be invariant to
// both, which is exactly what the three Test functions below assert.
// idleSource builds the pinned idle-heavy workload for one shape; shared
// with the compact-route-table replay in golden_compact_test.go.
func idleSource(t *testing.T, n int, shape string) sim.Source {
	t.Helper()
	switch shape {
	case "lowload":
		return &traffic.Synthetic{N: n, Rate: 0.004, PacketFlits: 6,
			Pattern: traffic.Uniform{N: n}}
	case "longoff":
		// Mean 16-cycle bursts, 4% duty: long OFF stretches between bursts.
		return &traffic.Synthetic{N: n, Rate: 0.02, PacketFlits: 6,
			Pattern: traffic.Uniform{N: n},
			Process: traffic.NewOnOff(n, 16, 0.04)}
	case "reqreply":
		// Window 1: every node stalls after one outstanding request, so
		// generation is dead until replies return — the NextFirer showcase.
		return &traffic.ReqReply{N: n, Window: 1, ReqFlits: 2, ReplyFlits: 6,
			Pattern: traffic.Uniform{N: n}}
	}
	t.Fatalf("unknown shape %q", shape)
	return nil
}

func runGoldenIdleCase(t *testing.T, c goldenIdleCase, jobs int, cycleStep bool) (*sim.Sim, sim.Result) {
	t.Helper()
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	src := idleSource(t, net.N(), c.Shape)
	cfg := sim.Config{
		Net:           net,
		Table:         minTable(t, net, 2),
		Buffers:       core.Buffers{VCs: 2, Scheme: c.Scheme, H: 1},
		Traffic:       src,
		Seed:          107,
		EngineJobs:    jobs,
		CycleStep:     cycleStep,
		WarmupCycles:  500,
		MeasureCycles: 1500,
		DrainCycles:   3000,
	}
	return runCfg(t, cfg)
}

// TestGoldenIdle compares every case's full Result against the fixture with
// the calendar active (the default engine), and asserts the calendar
// actually skipped cycles — a fixture that never skips would pin nothing.
func TestGoldenIdle(t *testing.T) {
	got := make(map[string]sim.Result)
	for _, c := range goldenIdleCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			s, res := runGoldenIdleCase(t, c, 0, false)
			got[c.Name] = res
			if st := s.EngineStats(); st.CyclesSkipped == 0 {
				t.Errorf("%s: calendar skipped nothing on an idle-heavy workload", c.Name)
			}
		})
	}

	if *updateGoldenIdle {
		writeGolden(t, goldenIdlePath, got)
		return
	}

	want := readGoldenIdle(t)
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("case %s missing from fixture; regenerate intentionally", name)
			continue
		}
		if g != w {
			t.Errorf("%s: Result drifted from golden fixture\n got %+v\nwant %+v", name, g, w)
		}
	}
	if len(got) == len(goldenIdleCases()) {
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("fixture case %s no longer produced", name)
			}
		}
	}
}

// TestGoldenIdleParallel replays every case with 4 engine domains against
// the same, unmodified fixture: skip decisions happen between cycles on the
// main goroutine, so domain-parallel stepping composes with the calendar
// without any result drift.
func TestGoldenIdleParallel(t *testing.T) {
	want := readGoldenIdle(t)
	for _, c := range goldenIdleCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			_, got := runGoldenIdleCase(t, c, 4, false)
			assertGoldenIdle(t, c.Name, got, want, "4-domain")
		})
	}
}

// TestGoldenIdleCycleStep replays every case with Config.CycleStep forcing
// the classic cycle-by-cycle loop against the same fixture: the calendar's
// exact-equivalence contract, pinned from the other side.
func TestGoldenIdleCycleStep(t *testing.T) {
	want := readGoldenIdle(t)
	for _, c := range goldenIdleCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			s, got := runGoldenIdleCase(t, c, 0, true)
			assertGoldenIdle(t, c.Name, got, want, "cycle-stepped")
			if st := s.EngineStats(); st.CyclesSkipped != 0 || st.CalendarPeak != 0 {
				t.Errorf("%s: CycleStep run reported skip telemetry: %+v", c.Name, st)
			}
		})
	}
}

func readGoldenIdle(t *testing.T) map[string]sim.Result {
	t.Helper()
	data, err := os.ReadFile(goldenIdlePath)
	if err != nil {
		t.Fatalf("read golden fixture (generate with -update-golden-idle): %v", err)
	}
	var want map[string]sim.Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

func assertGoldenIdle(t *testing.T, name string, got sim.Result, want map[string]sim.Result, mode string) {
	t.Helper()
	w, ok := want[name]
	if !ok {
		t.Fatalf("case %s missing from fixture", name)
	}
	if got != w {
		t.Errorf("%s: %s Result drifted from golden fixture\n got %+v\nwant %+v", name, mode, got, w)
	}
}
