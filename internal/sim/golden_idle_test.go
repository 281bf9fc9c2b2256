package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/golden"
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
// randomized corpus). Re-pin (only with an EngineVersion bump) with
// GOLDEN_UPDATE=1 go test ./...

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

// idleSource builds the pinned idle-heavy workload for one shape.
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

// runGoldenIdleCase executes one case. jobs selects the engine-domain count
// and cycleStep forces classic stepping — the fixture must be invariant to
// both, which is exactly what the three Test functions below assert.
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
	testGoldenIdle(t, 0, false)
}

// TestGoldenIdleParallel replays every case with 4 engine domains against
// the same, unmodified fixture: skip decisions happen between cycles on the
// main goroutine, so domain-parallel stepping composes with the calendar
// without any result drift.
func TestGoldenIdleParallel(t *testing.T) {
	testGoldenIdle(t, 4, false)
}

// TestGoldenIdleCycleStep replays every case with Config.CycleStep forcing
// the classic cycle-by-cycle loop against the same fixture: the calendar's
// exact-equivalence contract, pinned from the other side.
func TestGoldenIdleCycleStep(t *testing.T) {
	testGoldenIdle(t, 0, true)
}

func testGoldenIdle(t *testing.T, jobs int, cycleStep bool) {
	got := make(map[string]sim.Result)
	for _, c := range goldenIdleCases() {
		t.Run(c.Name, func(t *testing.T) {
			s, res := runGoldenIdleCase(t, c, jobs, cycleStep)
			got[c.Name] = res
			switch st := s.EngineStats(); {
			case cycleStep && (st.CyclesSkipped != 0 || st.CalendarPeak != 0):
				t.Errorf("CycleStep run reported skip telemetry: %+v", st)
			case !cycleStep && st.CyclesSkipped == 0:
				t.Error("calendar skipped nothing on an idle-heavy workload")
			}
		})
	}
	golden.Check(t, goldenIdlePath, sim.EngineVersion, got)
}
