// Latency figures: Fig. 1a, Fig. 10a, Fig. 11, Figs. 12-14 and Fig. 20,
// plus the design-choice ablations (central-buffer capacity, VC count,
// SMART hop factor). Each is a load x configuration grid rendered as the
// paper's latency tables.

package exp

import (
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/slimnoc"
)

// synthPatterns are the synthetic patterns Figs. 12-14 sweep.
var synthPatterns = []string{"adv1", "rev", "rnd", "shf"}

// fig1a is Fig. 1a: latency under an adversarial pattern at N = 1296 for SN
// versus mesh, torus and FBF.
func fig1a(o Options) Figure {
	return Figure{
		Title: "Latency under adversarial traffic, N=1296", Section: "Fig. 1a",
		Sweeps: []slimnoc.SweepSpec{
			latencyGrid(o, "fig1a", []string{"cm9", "t2d9", "fbf9", "sn_gr_1296"}, []string{"adv1"}, true),
		},
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			return latencyTables(r, 0, "fig1a", "Average packet latency [cycles], %s, N=1296, SMART (Fig. 1a)")
		},
		Claims: []Claim{lowerInRow("sn-below-torus",
			"Under adversarial traffic SN's latency is far below the torus's (~64% lower; Fig. 1a, §1)",
			"fig1a", "0.008", "sn_gr_1296", "t2d9")},
	}
}

// fig10a is Fig. 10a: SN layout comparison on synthetic traffic at N = 200,
// no SMART.
func fig10a(o Options) Figure {
	return Figure{
		Title: "SN layouts on synthetic traffic, N=200, no SMART", Section: "Fig. 10a",
		Sweeps: []slimnoc.SweepSpec{
			latencyGrid(o, "fig10a",
				[]string{"sn_basic_200", "sn_rand_200", "sn_gr_200", "sn_subgr_200"},
				[]string{"rev", "rnd", "shf"}, false),
		},
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			return latencyTables(r, 0, "fig10a", "Latency per SN layout, %s, N=200, no SMART (Fig. 10a)")
		},
		Claims: []Claim{lowerInRow("subgr-below-basic",
			"The subgroup layout's shorter wires give lower latency than the basic layout (~5%; Fig. 10a, §3.3)",
			"fig10a-RND", "0.008", "sn_subgr_200", "sn_basic_200")},
	}
}

// fig12 is Fig. 12: synthetic traffic with SMART links for the small
// networks.
func fig12(o Options) Figure {
	return Figure{
		Title: "Synthetic traffic, small networks (N in {192,200}), SMART", Section: "Fig. 12",
		Sweeps: []slimnoc.SweepSpec{latencyGrid(o, "fig12",
			[]string{"cm3", "t2d3", "pfbf3", "pfbf4", "sn_subgr_200", "fbf3"}, synthPatterns, true)},
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			return latencyTables(r, 0, "fig12", "Latency, %s, N in {192,200}, SMART (Fig. 12)")
		},
		Claims: []Claim{
			lowerInRow("sn-below-cm-t2d",
				"With SMART, SN's RND latency at low load is below the mesh's and the torus's (71% / 86% of them; Fig. 12, §5)",
				"fig12-RND", "0.008", "sn_subgr_200", "cm3", "t2d3"),
			snMatchesFBF("fig12-RND", "sn_subgr_200", "fbf3", "Fig. 12"),
			snSaturatesLater("fig12-RND", "sn_subgr_200", "cm3", "t2d3", "Fig. 12"),
		},
	}
}

// fig13 is Fig. 13: synthetic traffic with SMART links at N = 1296.
func fig13(o Options) Figure {
	return Figure{
		Title: "Synthetic traffic, N=1296, SMART", Section: "Fig. 13",
		Sweeps: []slimnoc.SweepSpec{
			latencyGrid(o, "fig13", []string{"cm9", "t2d9", "pfbf9", "sn_gr_1296", "fbf9"}, synthPatterns, true),
		},
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			return latencyTables(r, 0, "fig13", "Latency, %s, N=1296, SMART (Fig. 13)")
		},
		Claims: []Claim{
			lowerInRow("sn-below-cm",
				"At N=1296 with SMART, SN's RND latency at low load is below the mesh's (54% of it; Fig. 13, §5)",
				"fig13-RND", "0.008", "sn_gr_1296", "cm9"),
			snMatchesFBF("fig13-RND", "sn_gr_1296", "fbf9", "Fig. 13"),
			snSaturatesLater("fig13-RND", "sn_gr_1296", "cm9", "t2d9", "Fig. 13"),
		},
	}
}

// fig14 is Fig. 14: the small networks without SMART links.
func fig14(o Options) Figure {
	return Figure{
		Title: "Synthetic traffic, small networks, no SMART", Section: "Fig. 14",
		Sweeps: []slimnoc.SweepSpec{
			latencyGrid(o, "fig14", []string{"cm3", "t2d3", "pfbf3", "sn_subgr_200", "fbf3"}, synthPatterns, false),
		},
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			return latencyTables(r, 0, "fig14", "Latency, %s, N in {192,200}, no SMART (Fig. 14)")
		},
		Claims: []Claim{
			snMatchesFBF("fig14-RND", "sn_subgr_200", "fbf3", "Fig. 14"),
			snSaturatesLater("fig14-RND", "sn_subgr_200", "cm3", "t2d3", "Fig. 14"),
		},
	}
}

// snMatchesFBF is the Figs. 12-14 claim against FBF, read at the lowest
// load of a latency table: SN's latency is at most FBF's.
func snMatchesFBF(table, sn, fbf, fig string) Claim {
	return atMostInRow("sn-matches-fbf", "SN matches or beats FBF latency ("+fig+", §5)", table, "0.008", sn, fbf)
}

// snSaturatesLater is the Figs. 12-14 saturation claim, read at the
// highest quick-mode load of a latency table: SN's latency is below both
// the mesh's and the torus's.
func snSaturatesLater(table, sn, cm, t2d, fig string) Claim {
	return lowerInRow("sn-saturates-after-cm-t2d", "SN saturates later than the mesh and the torus ("+fig+", §5)",
		table, "0.240", sn, cm, t2d)
}

// fig11 is Fig. 11: the impact of buffering strategies on SN latency, for
// N in {200, 1296}, with and without SMART links. The registry schemes
// sweep as an axis; the two central-buffer capacities are base variations.
func fig11(o Options) Figure {
	type panel struct {
		n     int
		smart bool
	}
	var panels []panel
	var sweeps []slimnoc.SweepSpec
	for _, sz := range []struct {
		n   int
		net string
	}{{200, "sn_subgr_200"}, {1296, "sn_gr_1296"}} {
		for _, smart := range []bool{false, true} {
			panels = append(panels, panel{sz.n, smart})
			label := "nosmart"
			if smart {
				label = "smart"
			}
			base := simBase(o)
			base.SMART = smart
			sweeps = append(sweeps, slimnoc.SweepSpec{
				Name: fmt.Sprintf("fig11/%s/%s", sz.net, label),
				Base: base,
				Axes: slimnoc.SweepAxes{
					Presets:  []string{sz.net},
					Patterns: []string{"rnd"},
					Schemes:  []string{"eb", "eb-var", "eb-large", "el"},
					Loads:    o.Loads(),
				},
			})
			for _, cb := range []int{40, 6} {
				cbBase := base
				cbBase.Buffering = slimnoc.BufferingSpec{Scheme: "cbr", CBCap: cb}
				cbBase.Traffic = slimnoc.TrafficSpec{Pattern: "rnd"}
				sweeps = append(sweeps, slimnoc.SweepSpec{
					Name: fmt.Sprintf("fig11/%s/%s/cbr%d", sz.net, label, cb),
					Base: cbBase,
					Axes: slimnoc.SweepAxes{Presets: []string{sz.net}, Loads: o.Loads()},
				})
			}
		}
	}
	return Figure{
		Title: "Buffering strategies, N in {200, 1296}", Section: "Fig. 11",
		Sweeps: sweeps,
		Notes:  "CBR capacities 40 and 6 are base-spec variations (capacity is not a sweep axis).",
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			var out []*stats.Table
			for i, p := range panels {
				label := "No-SMART"
				if p.smart {
					label = "SMART"
				}
				t := &stats.Table{
					ID:    fmt.Sprintf("fig11-%d-%s", p.n, label),
					Title: fmt.Sprintf("Buffering strategies, N=%d, %s (Fig. 11)", p.n, label),
					Header: []string{"load", "EB-Small", "EB-Var", "EB-Large", "EL-Links",
						"CBR-40", "CBR-6"},
				}
				// Three sweeps per panel: the scheme axis, then CBR-40, CBR-6.
				var res [3][]*slimnoc.Result
				for k := range res {
					var err error
					if res[k], err = r.results(3*i + k); err != nil {
						return nil, err
					}
				}
				nLoad := len(r.Figure.Sweeps[3*i].Axes.Loads)
				for li, load := range r.Figure.Sweeps[3*i].Axes.Loads {
					row := []string{fmtLoad(load)}
					for si := 0; si < 4; si++ {
						row = append(row, fmtLat(res[0][si*nLoad+li].Metrics))
					}
					row = append(row, fmtLat(res[1][li].Metrics), fmtLat(res[2][li].Metrics))
					t.AddRow(row...)
				}
				out = append(out, t)
			}
			return out, nil
		},
	}
}

// fig20 is the adaptive-routing study (Fig. 20, §6): UGAL-L / UGAL-G / MIN
// on SN versus UGAL-L / XY-ADAPT / MIN on FBF, with plain input-queued
// routers (no SMART, CB or elastic links), N = 200. One sweep per
// (network, registered algorithm) pair.
func fig20(o Options) Figure {
	variants := []struct {
		net, alg, label string
	}{
		{"sn_subgr_200", "auto", "SN_MIN"},
		{"sn_subgr_200", "ugal-l", "SN_UGAL-L"},
		{"sn_subgr_200", "ugal-g", "SN_UGAL-G"},
		{"fbf4", "auto", "FBF_MIN"},
		{"fbf4", "ugal-l", "FBF_UGAL-L"},
		{"fbf4", "min-adapt", "FBF_XY-ADAPT"},
	}
	pats := []string{"rnd", "asym"}
	var sweeps []slimnoc.SweepSpec
	header := []string{"load"}
	for _, v := range variants {
		base := simBase(o)
		base.Routing = slimnoc.RoutingSpec{Algorithm: v.alg, VCs: 4}
		sweeps = append(sweeps, slimnoc.SweepSpec{
			Name: fmt.Sprintf("fig20/%s/%s", v.net, v.alg),
			Base: base,
			Axes: slimnoc.SweepAxes{
				Presets:  []string{v.net},
				Patterns: pats,
				Loads:    o.Loads(),
			},
		})
		header = append(header, v.label)
	}
	return Figure{
		Title: "Adaptive routing study, N=200, input-queued routers", Section: "Fig. 20 / §6",
		Sweeps: sweeps,
		Notes:  "`auto` is the static minimal baseline the figure labels MIN.",
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			res := make([][]*slimnoc.Result, len(variants))
			for vi := range variants {
				var err error
				if res[vi], err = r.results(vi); err != nil {
					return nil, err
				}
			}
			loads := r.Figure.Sweeps[0].Axes.Loads
			var out []*stats.Table
			for pi, pat := range pats {
				pat = strings.ToUpper(pat)
				t := &stats.Table{
					ID:     "fig20-" + pat,
					Title:  fmt.Sprintf("Adaptive routing, %s, N=200, input-queued routers (Fig. 20)", pat),
					Header: header,
				}
				for li, load := range loads {
					row := []string{fmtLoad(load)}
					for vi := range variants {
						row = append(row, fmtLat(res[vi][pi*len(loads)+li].Metrics))
					}
					t.AddRow(row...)
				}
				out = append(out, t)
			}
			return out, nil
		},
		Claims: []Claim{atMostInRow("sn-min-beats-fbf-min",
			"Under minimal routing SN's RND latency is at or below FBF's (Fig. 20, §6)",
			"fig20-RND", "0.008", "SN_MIN", "FBF_MIN")},
	}
}

// lowHighRow renders an ablation row from a (0.06, 0.30) load pair:
// latency at both loads and the throughput at the high one.
func lowHighRow(t *stats.Table, label int, low, high slimnoc.Metrics) {
	t.AddRowF(label, fmtLat(low), fmtLat(high), high.Throughput)
}

// ablCBSize sweeps the central-buffer capacity on SN-S and SN-L at a
// moderate and a high RND load, reproducing the §5.2.1 observation that
// small CBs outperform large ones (which hold more packets and raise
// latency) while still removing head-of-line blocking. One sweep per
// capacity and network: capacity is a base-spec variation.
func ablCBSize(o Options) Figure {
	sizes := []int{6, 10, 20, 40, 70, 100}
	if o.Quick {
		sizes = []int{6, 20, 40, 100}
	}
	nets := []string{"sn_subgr_200", "sn_gr_1296"}
	var sweeps []slimnoc.SweepSpec
	for _, net := range nets {
		for _, cb := range sizes {
			base := simBase(o)
			base.Buffering = slimnoc.BufferingSpec{Scheme: "cbr", CBCap: cb}
			base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd"}
			sweeps = append(sweeps, slimnoc.SweepSpec{
				Name: fmt.Sprintf("abl-cbsize/%s/cb%d", net, cb),
				Base: base,
				Axes: slimnoc.SweepAxes{
					Presets: []string{net},
					Loads:   []float64{0.06, 0.30},
				},
			})
		}
	}
	return Figure{
		Title: "Central-buffer capacity ablation", Section: "§5.2.1",
		Sweeps: sweeps,
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			var out []*stats.Table
			for ni, net := range nets {
				t := &stats.Table{
					ID:     "abl-cbsize-" + net,
					Title:  fmt.Sprintf("Central buffer capacity sweep, %s, RND (§5.2.1)", net),
					Header: []string{"cb_flits", "lat@0.06", "lat@0.30", "thr@0.30"},
				}
				for ci, cb := range sizes {
					res, err := r.results(ni*len(sizes) + ci)
					if err != nil {
						return nil, err
					}
					lowHighRow(t, cb, res[0].Metrics, res[1].Metrics)
				}
				out = append(out, t)
			}
			return out, nil
		},
		Claims: []Claim{cb6BeatsCB100("sn_subgr_200"), cb6BeatsCB100("sn_gr_1296")},
	}
}

// cb6BeatsCB100 is the §5.2.1 central-buffer claim on one network's
// capacity sweep: at the high load, CB-6 has lower latency than CB-100,
// the largest capacity swept.
func cb6BeatsCB100(net string) Claim {
	return lowerInCol("cb6-beats-cb100-"+net,
		"Central buffers of small capacity (CBR-6) beat larger ones at high load (Fig. 11, §5.2.1)",
		"abl-cbsize-"+net, "lat@0.30", "6", "100")
}

// ablVCs sweeps the virtual channel count on SN-S: 2 VCs suffice for
// deadlock freedom at diameter 2 (§4.3); more VCs trade buffer area for
// throughput under contention.
func ablVCs(o Options) Figure {
	base := simBase(o)
	base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd"}
	vcs := []int{2, 3, 4}
	return Figure{
		Title: "Virtual-channel count ablation, sn_subgr_200", Section: "§4.3",
		Sweeps: []slimnoc.SweepSpec{{
			Name: "abl-vcs",
			Base: base,
			Axes: slimnoc.SweepAxes{
				Presets: []string{"sn_subgr_200"},
				VCs:     vcs,
				Loads:   []float64{0.06, 0.30},
			},
		}},
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			res, err := r.results(0)
			if err != nil {
				return nil, err
			}
			t := &stats.Table{
				ID:     "abl-vcs",
				Title:  "VC count sweep, sn_subgr_200, RND (§4.3)",
				Header: []string{"vcs", "lat@0.06", "lat@0.30", "thr@0.30"},
			}
			for i, v := range vcs {
				lowHighRow(t, v, res[2*i].Metrics, res[2*i+1].Metrics)
			}
			return []*stats.Table{t}, nil
		},
	}
}

// ablSmartH sweeps the SMART hop factor H as base-spec variations: H=1 (no
// SMART) up to H=11, the §3.2.2 range for 1 GHz at 45 nm, on the long-wire
// sn_basic layout where SMART matters most.
func ablSmartH(o Options) Figure {
	hs := []int{1, 3, 9, 11}
	if o.Quick {
		hs = []int{1, 9}
	}
	var sweeps []slimnoc.SweepSpec
	for _, h := range hs {
		base := simBase(o)
		base.HopFactor = h
		base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.06}
		sweeps = append(sweeps, slimnoc.SweepSpec{
			Name: fmt.Sprintf("abl-smarth/h%d", h),
			Base: base,
			Axes: slimnoc.SweepAxes{Presets: []string{"sn_basic_1296"}},
		})
	}
	return Figure{
		Title: "SMART hop-factor ablation, sn_basic_1296", Section: "§3.2.2",
		Sweeps: sweeps,
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			t := &stats.Table{
				ID:     "abl-smarth",
				Title:  "SMART hop factor sweep, sn_basic_1296, RND load 0.06 (§3.2.2)",
				Header: []string{"H", "latency_cycles"},
			}
			for i, h := range hs {
				res, err := r.results(i)
				if err != nil {
					return nil, err
				}
				t.AddRowF(h, res[0].Metrics.AvgLatencyCycles)
			}
			return []*stats.Table{t}, nil
		},
		Claims: []Claim{lowerInCol("smart-helps-long-wires",
			"SMART links (H=9) cut latency on the long-wire basic layout (§3.2.2)",
			"abl-smarth", "latency_cycles", "9", "1")},
	}
}
