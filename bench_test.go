// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark reproduces the corresponding manifest figure
// from internal/exp in quick mode (FigureByID -> RunFigure -> Derive) and
// reports a headline metric of its derived tables, so regressions in the
// reproduced trends are visible from `go test -bench`. Run
// `go run ./cmd/snexp -exp <id> -full` for the full-methodology tables.
//
// BenchmarkEngine and BenchmarkCampaign time the simulator and the
// campaign pool for local profiling; `go run ./benchmark` is the
// measurement of record.
package repro_test

import (
	"context"
	"encoding/json"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/exp"
	"repro/internal/stats"
	"repro/slimnoc"
)

func opts() exp.Options { return exp.Options{Quick: true, Seed: 1} }

// runExp reproduces one manifest figure and returns its derived tables.
func runExp(b *testing.B, id string) []*stats.Table {
	b.Helper()
	f, err := exp.FigureByID(id, opts())
	if err != nil {
		b.Fatal(err)
	}
	var tables []*stats.Table
	for i := 0; i < b.N; i++ {
		run, err := exp.RunFigure(context.Background(), f, opts())
		if err != nil {
			b.Fatal(err)
		}
		if tables, err = f.Derive(run); err != nil {
			b.Fatal(err)
		}
	}
	if len(tables) == 0 {
		b.Fatalf("%s produced no tables", id)
	}
	return tables
}

// cell parses a numeric table cell; saturated points return +inf.
func cell(b *testing.B, t *stats.Table, row, col int) float64 {
	b.Helper()
	s := t.Rows[row][col]
	if s == "sat" {
		return 1e18
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell [%d][%d] = %q not numeric", row, col, s)
	}
	return v
}

func BenchmarkFig01aAdversarialLatency(b *testing.B) {
	t := runExp(b, "fig1a")[0]
	// Columns: load, cm9, t2d9, fbf9, sn_gr_1296. Report SN's low-load
	// latency and its ratio to the torus (paper: ~64% lower than torus).
	sn := cell(b, t, 0, 4)
	t2d := cell(b, t, 0, 2)
	b.ReportMetric(sn, "sn-latency-cycles")
	b.ReportMetric(sn/t2d, "sn-vs-torus-ratio")
	if sn >= t2d {
		b.Errorf("SN low-load ADV1 latency %.1f should beat torus %.1f", sn, t2d)
	}
}

func BenchmarkFig01bcThroughputPerPower(b *testing.B) {
	t := runExp(b, "fig1bc")[0]
	// Rows: sn, fbf9, t2d9, cm9. Paper: SN highest at both nodes.
	sn45 := cell(b, t, 0, 1)
	fbf45 := cell(b, t, 1, 1)
	t2d45 := cell(b, t, 2, 1)
	b.ReportMetric(sn45/fbf45, "sn-vs-fbf-45nm")
	b.ReportMetric(sn45/t2d45, "sn-vs-t2d-45nm")
	if sn45 <= t2d45 {
		b.Errorf("SN thr/power %.0f should beat torus %.0f (paper: >150%%)", sn45, t2d45)
	}
}

func BenchmarkFig03SlimFlyDragonflyOnChip(b *testing.B) {
	tables := runExp(b, "fig3")
	// fig3b rows: FBF, PFBF, T2D, CM, SF, DF. SF straight on-chip costs
	// more than PFBF (the paper's motivating observation).
	area := tables[1]
	sf := cell(b, area, 4, 4)
	pfbf := cell(b, area, 1, 4)
	b.ReportMetric(sf/pfbf, "sf-vs-pfbf-area")
	if sf <= pfbf {
		b.Error("straight SF should cost more area than PFBF")
	}
}

func BenchmarkTable2Configurations(b *testing.B) {
	t := runExp(b, "tab2")[0]
	b.ReportMetric(float64(len(t.Rows)), "config-rows")
	if len(t.Rows) != 24 {
		b.Errorf("Table 2 has %d rows, want 24", len(t.Rows))
	}
}

func BenchmarkTable3FieldTables(b *testing.B) {
	tables := runExp(b, "tab3")
	if len(tables) != 6 {
		b.Fatalf("want 6 operation tables, got %d", len(tables))
	}
}

func BenchmarkTable4Configurations(b *testing.B) {
	t := runExp(b, "tab4")[0]
	if len(t.Rows) != 18 {
		b.Errorf("Table 4 rows = %d, want 18", len(t.Rows))
	}
}

func BenchmarkFig05LayoutCostSweep(b *testing.B) {
	tables := runExp(b, "fig5")
	// fig5a: last row, columns rand/basic/gr/subgr (2..5): subgroup layout
	// must cut M versus rand.
	mt := tables[0]
	last := len(mt.Rows) - 1
	rand := cell(b, mt, last, 2)
	subgr := cell(b, mt, last, 5)
	b.ReportMetric(1-subgr/rand, "M-reduction-vs-rand")
	if subgr >= rand {
		b.Error("sn_subgr should reduce M vs sn_rand (paper: ~25%)")
	}
}

func BenchmarkFig06DistanceDistributions(b *testing.B) {
	tables := runExp(b, "fig6")
	if len(tables) != 3 {
		b.Fatalf("want 3 size tables, got %d", len(tables))
	}
	// Short links dominate: first bin probability far above the longest.
	t200 := tables[0]
	b.ReportMetric(cell(b, t200, 0, 2), "subgr-shortlink-prob")
}

func BenchmarkFig10LayoutLatency(b *testing.B) {
	tables := runExp(b, "fig10a")
	// RND table, low load: subgr (col 4) beats basic (col 1).
	rnd := tables[1]
	basic := cell(b, rnd, 0, 1)
	subgr := cell(b, rnd, 0, 4)
	b.ReportMetric(subgr/basic, "subgr-vs-basic")
	if subgr >= basic {
		b.Error("sn_subgr should have lower latency than sn_basic (paper: ~5%)")
	}
}

func BenchmarkFig11BufferSchemes(b *testing.B) {
	tables := runExp(b, "fig11")
	// N=200 no-SMART table at low load: EB-Small (col 1) close to others;
	// at the highest load small buffers hurt. Report CBR-6 vs EB-Large.
	t := tables[0]
	last := len(t.Rows) - 1
	ebLarge := cell(b, t, last, 3)
	cbr6 := cell(b, t, last, 6)
	b.ReportMetric(cbr6/ebLarge, "cbr6-vs-eblarge-highload")
}

func BenchmarkFig12SmallSmart(b *testing.B) {
	tables := runExp(b, "fig12")
	// RND table (index 2), low load: SN (col 5) beats cm3 (col 1) and t2d3
	// (col 2) — the paper's 71%/86% ratios.
	rnd := tables[2]
	cm := cell(b, rnd, 0, 1)
	t2d := cell(b, rnd, 0, 2)
	sn := cell(b, rnd, 0, 5)
	b.ReportMetric(sn/cm, "sn-vs-cm")
	b.ReportMetric(sn/t2d, "sn-vs-t2d")
	if sn >= cm || sn >= t2d {
		b.Error("SN should beat CM and T2D at low load")
	}
}

func BenchmarkFig13LargeSmart(b *testing.B) {
	tables := runExp(b, "fig13")
	rnd := tables[2]
	cm := cell(b, rnd, 0, 1)
	sn := cell(b, rnd, 0, 4)
	b.ReportMetric(sn/cm, "sn-vs-cm9")
	if sn >= cm {
		b.Error("SN should beat cm9 at low load (paper: 54%)")
	}
}

func BenchmarkFig14SmallNoSmart(b *testing.B) {
	tables := runExp(b, "fig14")
	if len(tables) != 4 {
		b.Fatalf("want 4 pattern tables, got %d", len(tables))
	}
	rnd := tables[2]
	cm := cell(b, rnd, 0, 1)
	sn := cell(b, rnd, 0, 4)
	b.ReportMetric(sn/cm, "sn-vs-cm-nosmart")
}

func BenchmarkFig15AreaPowerNoSmart(b *testing.B) {
	tables := runExp(b, "fig15")
	// fig15b rows: fbf4, pfbf4, sn, t2d4, cm4; total in last column.
	nets := tables[1]
	fbf := cell(b, nets, 0, 5)
	sn := cell(b, nets, 2, 5)
	b.ReportMetric(1-sn/fbf, "area-reduction-vs-fbf")
	if sn >= fbf {
		b.Error("SN area should be below FBF (paper: 34%)")
	}
}

func BenchmarkFig16AreaPowerSmallSmart(b *testing.B) {
	tables := runExp(b, "fig16")
	if len(tables) != 6 {
		b.Fatalf("want 6 tables (area/static/dynamic x 2 nodes), got %d", len(tables))
	}
	// 45nm static (index 1): sn row 3 vs fbf3 row 0, total col 3.
	st := tables[1]
	fbf := cell(b, st, 0, 3)
	sn := cell(b, st, 3, 3)
	b.ReportMetric(1-sn/fbf, "static-reduction-vs-fbf")
	if sn >= fbf {
		b.Error("SN static power/node should be below FBF (paper: 46%)")
	}
}

func BenchmarkFig17AreaPowerLargeSmart(b *testing.B) {
	tables := runExp(b, "fig17")
	st := tables[1] // 45nm static
	fbf8 := cell(b, st, 0, 3)
	sn := cell(b, st, 3, 3)
	b.ReportMetric(1-sn/fbf8, "static-reduction-vs-fbf8")
	if sn >= fbf8 {
		b.Error("SN-L static power should be below fbf8 (paper: 41-44%)")
	}
}

func BenchmarkTable5ThroughputPerPower(b *testing.B) {
	t := runExp(b, "tab5")[0]
	// Every row is SN's gain over a baseline; the low-radix gains must be
	// positive and large.
	positive := 0
	for _, row := range t.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			b.Fatal(err)
		}
		if v > 0 {
			positive++
		}
	}
	b.ReportMetric(float64(positive)/float64(len(t.Rows)), "positive-gain-fraction")
}

func BenchmarkFig18EnergyDelay(b *testing.B) {
	t := runExp(b, "fig18")[0]
	// Last row is the geomean; columns: bench, fbf3, pfbf3, cm3, sn.
	last := len(t.Rows) - 1
	sn := cell(b, t, last, 4)
	b.ReportMetric(sn, "sn-edp-vs-fbf")
	if sn >= 1 {
		b.Errorf("SN normalised EDP %.2f should be < 1 vs FBF (paper: ~0.45)", sn)
	}
}

func BenchmarkFig19SmallScale(b *testing.B) {
	tables := runExp(b, "fig19")
	// Latency table first: fbf54, pfbf54, sn, t2d54; SN beats T2D at low
	// load (paper: ~15%).
	lt := tables[0]
	sn := cell(b, lt, 0, 3)
	t2d := cell(b, lt, 0, 4)
	b.ReportMetric(sn/t2d, "sn-vs-t2d-54")
	if sn >= t2d {
		b.Error("SN should beat T2D at N=54")
	}
}

func BenchmarkTable6SmartGain(b *testing.B) {
	t := runExp(b, "tab6")[0]
	// Rows: fbf3, pfbf3, cm3, sn. CM gains ~0 (single-cycle wires); SN
	// gains the most (paper: ~10-13%).
	nCols := len(t.Header)
	cmGain := cell(b, t, 2, 1)
	snGain := cell(b, t, 3, 1)
	b.ReportMetric(snGain, "sn-smart-gain-pct")
	b.ReportMetric(cmGain, "cm-smart-gain-pct")
	_ = nCols
	if snGain <= cmGain {
		b.Error("SMART should help SN more than the single-cycle-wire CM")
	}
}

func BenchmarkFig20AdaptiveRouting(b *testing.B) {
	tables := runExp(b, "fig20")
	if len(tables) != 2 {
		b.Fatalf("want RND and ASYM tables, got %d", len(tables))
	}
	// RND at low load: SN_MIN (col 1) should be at or below FBF_MIN (col 4)
	// — the paper's UGAL study shows SN MIN outperforming FBF MIN.
	rnd := tables[0]
	snMin := cell(b, rnd, 0, 1)
	fbfMin := cell(b, rnd, 0, 4)
	b.ReportMetric(snMin/fbfMin, "snmin-vs-fbfmin")
}

func BenchmarkSec55FoldedClos(b *testing.B) {
	t := runExp(b, "sec55")[0]
	gain := cell(b, t, 0, 3)
	b.ReportMetric(gain, "sn-smaller-than-clos-pct")
	if gain <= 0 {
		b.Error("SN should use less area than the folded Clos (paper: ~24-26%)")
	}
}

func BenchmarkSensNetworkSizes(b *testing.B) {
	t := runExp(b, "sens-sizes")[0]
	// Quick mode: N=1024 rows (sn, t2d, fbf). SN should beat the torus in
	// nanosecond latency.
	sn := cell(b, t, 0, 4)
	t2d := cell(b, t, 1, 4)
	b.ReportMetric(sn/t2d, "sn-vs-t2d-ns-1024")
	if sn >= t2d {
		b.Error("SN should beat the torus at N=1024 (§5.5: advantages consistent)")
	}
}

func BenchmarkSensConcentration(b *testing.B) {
	t := runExp(b, "sens-conc")[0]
	if len(t.Rows) == 0 {
		b.Fatal("empty concentration sweep")
	}
}

func BenchmarkSensCycleTime(b *testing.B) {
	runExp(b, "sens-cycle")
}

func BenchmarkResilience(b *testing.B) {
	t := runExp(b, "resil")[0]
	// SN at 10% failures: still connected, diameter <= 4.
	for _, row := range t.Rows {
		if row[0] == "10" && row[1] == "sn_subgr_200" {
			conn, _ := strconv.ParseFloat(row[2], 64)
			b.ReportMetric(conn, "sn-connectivity-10pct")
			if conn < 0.99 {
				b.Errorf("SN connectivity %.3f at 10%% link failures", conn)
			}
		}
	}
}

func BenchmarkAblCentralBufferSize(b *testing.B) {
	tables := runExp(b, "abl-cbsize")
	// SN-S table: small CBs should not lose to CB-100 at high load
	// (paper §5.2.1: large CBs hold more packets, raising latency).
	t := tables[0]
	lat6 := cell(b, t, 0, 1)
	lat100 := cell(b, t, len(t.Rows)-1, 1)
	b.ReportMetric(lat6/lat100, "cb6-vs-cb100-latency")
}

func BenchmarkAblVirtualChannels(b *testing.B) {
	t := runExp(b, "abl-vcs")[0]
	if len(t.Rows) != 3 {
		b.Fatal("want 3 VC rows")
	}
}

func BenchmarkAblSmartHopFactor(b *testing.B) {
	t := runExp(b, "abl-smarth")[0]
	h1 := cell(b, t, 0, 1)
	h9 := cell(b, t, 1, 1)
	b.ReportMetric(1-h9/h1, "smart-latency-reduction")
	if h9 >= h1 {
		b.Error("SMART (H=9) should reduce latency on long-wire layouts")
	}
}

// BenchmarkEngine measures raw single-point simulator throughput on
// fig12-style configurations: the SN-S network under uniform random traffic
// at low, mid and high load, with and without SMART. Low and mid load are
// where idle-scan waste dominated the pre-active-set engine; high and
// saturated load are where per-flit router work dominates, which the SoA
// state layout plus domain-parallel stepping attack (every run here uses
// WithEngineJobs(-1), all cores — results are byte-identical to serial, so
// the numbers stay comparable across machine shapes).
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
			if _, err := slimnoc.Run(context.Background(), spec, slimnoc.WithEngineJobs(-1)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := slimnoc.Run(context.Background(), spec, slimnoc.WithEngineJobs(-1))
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
