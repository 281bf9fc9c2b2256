// Trace-driven figures: Fig. 10b (layout latency on PARSEC/SPLASH), Fig. 18
// (energy-delay product) and Table 6 (SMART latency gains). Each benchmark
// is one sweep over the figure's networks.

package exp

import (
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/slimnoc"
)

// benchList returns all 14 benchmarks; quick mode samples a representative
// subset to bound run time.
func benchList(o Options) []trace.Benchmark {
	all := trace.Benchmarks()
	if !o.Quick {
		return all
	}
	return []trace.Benchmark{all[0], all[5], all[9], all[13]} // barnes, fft, radix, water
}

// traceGrids builds one sweep per PARSEC/SPLASH benchmark over the given
// networks (the traces axis: sources are stateful, so each benchmark is a
// base-spec variation rather than a sweep axis).
func traceGrids(o Options, name string, presets []string, smart bool) []slimnoc.SweepSpec {
	var out []slimnoc.SweepSpec
	for _, b := range benchList(o) {
		base := simBase(o)
		base.SMART = smart
		base.Traffic = slimnoc.TrafficSpec{Pattern: "trace", Trace: b.Name}
		out = append(out, slimnoc.SweepSpec{
			Name: fmt.Sprintf("%s/%s", name, b.Name),
			Base: base,
			Axes: slimnoc.SweepAxes{Presets: presets},
		})
	}
	return out
}

// perBenchmark fills t with one row per benchmark sweep — cell's value per
// network, divided by the first network's when norm is set — and a closing
// geometric-mean row.
func perBenchmark(r FigureRun, t *stats.Table, norm bool, cell func(*slimnoc.Result) (float64, error)) error {
	cols := make([][]float64, len(t.Header)-1)
	for si, sweep := range r.Figure.Sweeps {
		res, err := r.results(si)
		if err != nil {
			return err
		}
		row := []interface{}{sweep.Base.Traffic.Trace}
		var first float64
		for i, p := range res {
			v, err := cell(p)
			if err != nil {
				return err
			}
			if i == 0 {
				first = v
			}
			if norm {
				v /= first
			}
			cols[i] = append(cols[i], v)
			row = append(row, v)
		}
		t.AddRowF(row...)
	}
	geo := []interface{}{"geomean"}
	for _, c := range cols {
		geo = append(geo, stats.GeoMean(c))
	}
	t.AddRowF(geo...)
	return nil
}

// fig10b is Fig. 10b: average packet latency per SN layout on the
// PARSEC/SPLASH workloads (N = 200, no SMART).
func fig10b(o Options) Figure {
	layouts := []string{"sn_basic_200", "sn_gr_200", "sn_subgr_200"}
	return Figure{
		Title: "SN layouts on PARSEC/SPLASH, N=200, no SMART", Section: "Fig. 10b",
		Sweeps: traceGrids(o, "fig10b", layouts, false),
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			t := &stats.Table{
				ID:     "fig10b",
				Title:  "Latency [cycles] per SN layout, PARSEC/SPLASH, N=200, no SMART (Fig. 10b)",
				Header: append([]string{"benchmark"}, layouts...),
			}
			err := perBenchmark(r, t, false, func(p *slimnoc.Result) (float64, error) {
				return p.Metrics.AvgLatencyCycles, nil
			})
			return []*stats.Table{t}, err
		},
		Claims: []Claim{lowerInRow("subgr-wins-n200",
			"The subgroup layout has the lowest latency at N=200 (Figs. 10a/10b, §3.3)",
			"fig10b", "geomean", "sn_subgr_200", "sn_basic_200", "sn_gr_200")},
	}
}

// fig18 is Fig. 18: the energy-delay product on PARSEC/SPLASH normalised to
// FBF (N = 192/200, SMART).
func fig18(o Options) Figure {
	names := []string{"fbf3", "pfbf3", "cm3", "sn_subgr_200"}
	return Figure{
		Title: "Energy-delay product on PARSEC/SPLASH, SMART", Section: "Fig. 18",
		Sweeps: traceGrids(o, "fig18", names, true),
		Notes:  "EDP normalisation against FBF is derived post-processing of the same runs.",
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			t := &stats.Table{
				ID:     "fig18",
				Title:  "Normalised energy-delay vs FBF, PARSEC/SPLASH, SMART (Fig. 18)",
				Header: append([]string{"benchmark"}, names...),
			}
			t45 := power.Tech45()
			err := perBenchmark(r, t, true, func(p *slimnoc.Result) (float64, error) {
				n, buf, err := priced(p)
				if err != nil {
					return 0, err
				}
				st := power.Static(n, buf, t45)
				act := power.ActivityOf(n, p.Metrics.Throughput, p.Metrics.AvgHops, t45, flitBits)
				dy := power.Dynamic(act, t45)
				runSec := float64(p.Spec.Sim.MeasureCycles) * n.CycleTimeNs * 1e-9
				latSec := p.Metrics.AvgLatencyCycles * n.CycleTimeNs * 1e-9
				return power.EnergyDelay(st, dy, runSec, latSec), nil
			})
			return []*stats.Table{t}, err
		},
		Claims: []Claim{lowerInRow("sn-edp-below-fbf", "SN's energy-delay product is below FBF's (~0.45 of it; Fig. 18, §5.4)",
			"fig18", "geomean", "sn_subgr_200", "fbf3")},
	}
}

// tab6 is Table 6: the percentage decrease in average packet latency due to
// SMART links, per benchmark and per topology (N = 192). The no-SMART trace
// sweeps come first, then the SMART ones, one per benchmark each.
func tab6(o Options) Figure {
	nets := []string{"fbf3", "pfbf3", "cm3", "sn_subgr_200"}
	benches := benchList(o)
	sweeps := traceGrids(o, "tab6/nosmart", nets, false)
	sweeps = append(sweeps, traceGrids(o, "tab6/smart", nets, true)...)
	return Figure{
		Title: "Latency decrease from SMART, PARSEC/SPLASH", Section: "Table 6",
		Sweeps: sweeps,
		Notes:  "The percentage gain pairs each benchmark's SMART and no-SMART runs.",
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			t := &stats.Table{
				ID:     "tab6",
				Title:  "Latency decrease from SMART [%], PARSEC/SPLASH (Table 6)",
				Header: []string{"network"},
			}
			gains := make([][]interface{}, len(nets))
			for ni, nm := range nets {
				gains[ni] = []interface{}{nm}
			}
			for bi, b := range benches {
				t.Header = append(t.Header, b.Name)
				no, err := r.results(bi)
				if err != nil {
					return nil, err
				}
				yes, err := r.results(len(benches) + bi)
				if err != nil {
					return nil, err
				}
				for ni := range nets {
					gain := 0.0
					if l := no[ni].Metrics.AvgLatencyCycles; l > 0 {
						gain = (1 - yes[ni].Metrics.AvgLatencyCycles/l) * 100
					}
					gains[ni] = append(gains[ni], gain)
				}
			}
			for _, row := range gains {
				t.AddRowF(row...)
			}
			return []*stats.Table{t}, nil
		},
		Claims: []Claim{{
			ID:    "smart-helps-sn-more-than-cm",
			Paper: "SMART cuts SN's long-wire latency more than the mesh's single-cycle-wire latency, on every benchmark (~10-13%; Table 6)",
			Eval: func(r *Reader) (float64, bool) {
				least := math.Inf(1)
				for _, b := range benches {
					least = math.Min(least, r.Num("tab6", "sn_subgr_200", b.Name)-r.Num("tab6", "cm3", b.Name))
				}
				return least, least > 0
			},
		}},
	}
}
