// Benchmark harness. BenchmarkFigures reproduces every manifest figure
// with derived tables in quick mode (FigureByID -> RunFigure -> Derive)
// and reports the value of each of the paper's claims declared on it, so
// a drift in the reproduced trends is visible from `go test -bench`; the
// verdicts themselves are pinned by internal/exp's TestClaims. Run
// `go run ./cmd/snrepro -figs <id>` for a figure's reports at the paper's
// full methodology.
//
// BenchmarkEngine and BenchmarkCampaign time the simulator and the
// campaign pool for local profiling; `go run ./benchmark` is the
// measurement of record.
package repro_test

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/exp"
	"repro/slimnoc"
)

// BenchmarkFigures reproduces each manifest figure that has a Derive, one
// sub-benchmark per figure, and reports each of its claims' values under
// the claim's ID.
func BenchmarkFigures(b *testing.B) {
	o := exp.Options{Quick: true, Seed: 1}
	for _, f := range exp.Manifest(o) {
		if f.Derive == nil {
			continue
		}
		b.Run(f.ID, func(b *testing.B) {
			var verdicts []exp.Verdict
			for i := 0; i < b.N; i++ {
				run, err := exp.RunFigure(context.Background(), f, o)
				if err != nil {
					b.Fatal(err)
				}
				tables, err := f.Derive(run)
				if err != nil {
					b.Fatal(err)
				}
				verdicts = f.Judge(tables)
			}
			for i, v := range verdicts {
				if v.Err != nil {
					b.Fatalf("%s: %v", v.Claim, v.Err)
				}
				b.ReportMetric(v.Value, f.Claims[i].ID)
			}
		})
	}
}

// BenchmarkEngine measures raw single-point simulator throughput on
// fig12-style configurations: the SN-S network under uniform random traffic
// at low, mid and high load, with and without SMART. Low and mid load are
// where idle-scan waste dominated the pre-active-set engine; high and
// saturated load are where per-flit router work dominates, which the SoA
// state layout attacks. The engine picks its own domain count, which for
// this 50-router network is one on any machine, so the numbers stay
// comparable across machine shapes.
func BenchmarkEngine(b *testing.B) {
	for _, bc := range []struct {
		name  string
		rate  float64
		smart bool
	}{
		{"low-load", 0.008, true},
		{"mid-load", 0.06, true},
		{"high-load", 0.24, true},
		{"sat-load", 0.40, true},
		{"low-load-nosmart", 0.008, false},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			spec := slimnoc.RunSpec{
				Network: slimnoc.NetworkSpec{Preset: "sn_subgr_200"},
				Traffic: slimnoc.TrafficSpec{Pattern: "rnd", Rate: bc.rate},
				SMART:   bc.smart,
				Sim:     slimnoc.QuickSim(),
			}
			spec.Sim.Seed = 1
			// One untimed warmup run: page in the preset's network and
			// route table caches, warm the allocator and scheduler, and
			// let CPU frequency settle, so with -benchtime 1x -count=N
			// the recorded samples measure the engine rather than
			// first-run effects (mid-load spread was 0.33 without it).
			if _, err := slimnoc.Run(context.Background(), spec); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := slimnoc.Run(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				if res.Metrics.Delivered == 0 {
					b.Fatal("nothing delivered")
				}
			}
		})
	}

	// The idle-drain pair is the event calendar's headline: near-zero load
	// followed by a long drain window that is almost entirely dead cycles,
	// run once through the calendar (the default) and once with
	// WithCycleStep forcing the classic loop. The ns/op ratio between the
	// two is the calendar speedup on idle-heavy runs; both stay serial so
	// the ratio isolates skipping from domain parallelism, and both must
	// deliver identical traffic.
	idleSpec := slimnoc.RunSpec{
		Network: slimnoc.NetworkSpec{Preset: "sn_subgr_200"},
		Traffic: slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.002},
		SMART:   true,
		Sim:     slimnoc.SimSpec{WarmupCycles: 200, MeasureCycles: 800, DrainCycles: 500000, Seed: 1},
	}
	for _, bc := range []struct {
		name string
		opts []slimnoc.Option
	}{
		{"idle-drain", nil},
		{"idle-drain-cyclestep", []slimnoc.Option{slimnoc.WithCycleStep()}},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			// Untimed warmup, as above: the first run pays one-off cache
			// population that would otherwise inflate sample spread.
			if _, err := slimnoc.Run(context.Background(), idleSpec, bc.opts...); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := slimnoc.Run(context.Background(), idleSpec, bc.opts...)
				if err != nil {
					b.Fatal(err)
				}
				if res.Metrics.Delivered == 0 {
					b.Fatal("nothing delivered")
				}
			}
		})
	}
}

// campaignBenchPoints expands a quick fig12-style sweep: the small-network
// SMART comparison at three loads under uniform random traffic.
func campaignBenchPoints(b *testing.B) []slimnoc.RunSpec {
	b.Helper()
	sweep := slimnoc.SweepSpec{
		Name: "bench-fig12",
		Base: slimnoc.RunSpec{
			SMART: true,
			Sim:   slimnoc.QuickSim(),
		},
		Axes: slimnoc.SweepAxes{
			Presets:  []string{"cm3", "t2d3", "sn_subgr_200", "fbf3"},
			Patterns: []string{"rnd"},
			Loads:    []float64{0.008, 0.06, 0.24},
		},
	}
	sweep.Base.Sim.Seed = 1
	points, err := sweep.Points()
	if err != nil {
		b.Fatal(err)
	}
	return points
}

// runCampaignBench executes the sweep with the given worker count and
// returns the per-point metrics serialized for comparison.
func runCampaignBench(b *testing.B, points []slimnoc.RunSpec, jobs int) []string {
	b.Helper()
	results, err := slimnoc.RunCampaign(context.Background(), points, slimnoc.WithJobs(jobs))
	if err != nil {
		b.Fatal(err)
	}
	out := make([]string, len(results))
	for i, p := range results {
		if p.Err != nil {
			b.Fatalf("point %d (%s): %v", i, p.Spec.Name, p.Err)
		}
		m, err := json.Marshal(p.Result.Metrics)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = string(m)
	}
	return out
}

// BenchmarkCampaign compares serial against all-cores execution of a quick
// fig12-style sweep through the Campaign engine, and asserts the contract
// behind the parallelism: per-point metrics are byte-identical at any job
// count (seeds are fixed at sweep expansion, never derived from execution
// order). Compare the two sub-benchmarks' ns/op for the campaign speedup.
func BenchmarkCampaign(b *testing.B) {
	points := campaignBenchPoints(b)
	var serial, parallel []string
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serial = runCampaignBench(b, points, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportMetric(float64(runtime.NumCPU()), "jobs")
		for i := 0; i < b.N; i++ {
			parallel = runCampaignBench(b, points, runtime.NumCPU())
		}
	})
	// Filtering to one sub-benchmark (-bench BenchmarkCampaign/serial)
	// leaves the other slice empty; only compare when both actually ran.
	if len(serial) == 0 || len(parallel) == 0 {
		return
	}
	if len(serial) != len(parallel) {
		b.Fatalf("serial ran %d points, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			b.Errorf("point %d: serial metrics %s != parallel %s", i, serial[i], parallel[i])
		}
	}
}
