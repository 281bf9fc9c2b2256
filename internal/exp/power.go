// Area, power, throughput/power and EDP figures: Fig. 1b/c, Fig. 3,
// Figs. 15-17, Fig. 19, Table 5, and the §5.5 folded-Clos comparison. The
// area and static power come from the analytical models; the dynamic power
// and throughput come from each figure's activity runs (RND at the paper's
// 0.24 comparison load, SMART). PowerTables renders the same analysis for
// any one spec.

package exp

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/slimnoc"
)

const flitBits = 128

// pricedRun is one run with its network and its buffer storage as the
// power model prices it: the flits and VCs of the buffer plan the run's
// engine allocated (slimnoc.RunSpec.BufferPlan). A Derive prices each
// result once and hands the pricedRun to every table and tech node.
type pricedRun struct {
	*slimnoc.Result
	net *topo.Network
	buf power.BufferConfig
}

// priced rebuilds a run's network and prices its buffers.
func priced(r *slimnoc.Result) (pricedRun, error) {
	n, _, err := slimnoc.BuildNetwork(r.Spec.Network)
	if err != nil {
		return pricedRun{}, fmt.Errorf("exp: %w", err)
	}
	b, err := r.Spec.BufferPlan()
	if err != nil {
		return pricedRun{}, err
	}
	return pricedRun{Result: r, net: n, buf: power.Buffers(n, b, flitBits)}, nil
}

// pricedAll prices every run of a sweep.
func pricedAll(res []*slimnoc.Result) ([]pricedRun, error) {
	out := make([]pricedRun, len(res))
	for i, r := range res {
		var err error
		if out[i], err = priced(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// The analytic figures (Figs. 3, 5 and 15, §5.5) price the §3.2.2 EB-Var
// design, full wire utilisation at the paper's 2 VCs, without and with
// SMART (H = 9).
var (
	plainEB = core.Buffers{Scheme: core.EBVar, VCs: 2, H: 1}
	smartEB = core.Buffers{Scheme: core.EBVar, VCs: 2, H: 9}
)

// techs are the two technology nodes the paper evaluates.
var techs = []power.Tech{power.Tech45(), power.Tech22()}

// fig3Tables renders Fig. 3: Slim Fly and Dragonfly used directly as NoCs.
// 3a: average wire length versus core count; 3b/3c: area and static power
// per node at ~200 cores.
func fig3Tables(o Options) ([]*stats.Table, error) {
	wire := &stats.Table{
		ID:     "fig3a",
		Title:  "Average wire length [hops] vs core count (Fig. 3a)",
		Header: []string{"N", "torus", "slimfly", "dragonfly", "fbf_fullbw"},
	}
	sizes := []int{128, 200, 512, 1024}
	if o.Quick {
		sizes = []int{200, 1024}
	}
	for _, n := range sizes {
		pt := fig3Point(n)
		if pt == nil {
			continue
		}
		wire.AddRowF(n, pt.torus.AvgWireLength(), pt.slim.AvgWireLength(),
			pt.dragonfly.AvgWireLength(), pt.fbf.AvgWireLength())
	}

	// 3b/3c at ~200 cores; the Dragonfly has Nr=50, N=200, k'=6.
	var nets []*topo.Network
	for _, name := range []string{"fbf4", "pfbf4", "t2d4", "cm4", "sn_rand_200"} {
		n, err := preset(name)
		if err != nil {
			return nil, err
		}
		nets = append(nets, n)
	}
	df, err := topo.Dragonfly(5, 2, 10, 4)
	if err != nil {
		return nil, err
	}
	nets = append(nets, df)
	labels := []string{"FBF", "PFBF", "T2D", "CM", "SF", "DF"}
	area := &stats.Table{
		ID:     "fig3b",
		Title:  "Area per node [cm^2], ~200 cores, straight on-chip use (Fig. 3b)",
		Header: []string{"network", "i_routers", "a_routers", "wires", "total"},
	}
	pow := &stats.Table{
		ID:     "fig3c",
		Title:  "Static power per node [W], ~200 cores (Fig. 3c)",
		Header: []string{"network", "routers", "wires", "total"},
	}
	t45 := power.Tech45()
	for i, n := range nets {
		buf := power.Buffers(n, plainEB, flitBits)
		a := power.Area(n, buf, t45).PerNodeCM2(n.N())
		s := power.Static(n, buf, t45)
		area.AddRowF(labels[i], a.IRouters, a.ARouters, a.RRWires+a.RNWires, a.Total())
		pow.AddRowF(labels[i], s.Routers/float64(n.N()), s.Wires/float64(n.N()),
			s.Total()/float64(n.N()))
	}
	return []*stats.Table{wire, area, pow}, nil
}

// fig3Claim is Fig. 3's motivating observation.
var fig3Claim = lowerInCol("sf-area-above-pfbf",
	"Slim Fly used straight on-chip takes more area than PFBF (Fig. 3b, §2.2)",
	"fig3b", "total", "PFBF", "SF")

type fig3Nets struct {
	torus, fbf, slim, dragonfly *topo.Network
}

// fig3Point builds the Fig. 3a networks nearest n cores, or nil when no
// Slim Fly or Dragonfly fits.
func fig3Point(n int) *fig3Nets {
	params, err := core.FromNetworkSize(n)
	if err != nil {
		return nil
	}
	s, err := core.New(params)
	if err != nil {
		return nil
	}
	// Slim Fly straight on-chip: random (off-chip-oblivious) placement.
	slim, err := s.Network(core.LayoutRand, 3)
	if err != nil {
		return nil
	}
	// Torus and FBF at matching size.
	side := 1
	for side*side*4 < n {
		side++
	}
	torus := topo.Torus2D(side, side, 4)
	fbf := topo.FBF(side, side, 4)
	// Dragonfly: a=5, h=2, g scaled to approach n with p=4.
	g := n / (5 * 4)
	if g < 2 {
		g = 2
	}
	if g > 11 {
		g = 11
	}
	df, err := topo.Dragonfly(5, 2, g, 4)
	if err != nil {
		return nil
	}
	return &fig3Nets{torus: torus, fbf: fbf, slim: slim, dragonfly: df}
}

// areaPowerTables renders per-node area / static / dynamic power for an
// activity grid's networks under one tech node, each priced as its run was
// simulated (priced). The runs share one traffic pattern and load.
func areaPowerTables(runs []pricedRun, idPrefix, title string, t power.Tech) []*stats.Table {
	area := &stats.Table{
		ID:     idPrefix + "-area",
		Title:  title + " — area/node [cm^2]",
		Header: []string{"network", "i_routers", "a_routers", "RR_wires", "RN_wires", "total"},
	}
	stat := &stats.Table{
		ID:     idPrefix + "-static",
		Title:  title + " — static power/node [W]",
		Header: []string{"network", "routers", "wires", "total"},
	}
	dyn := &stats.Table{
		ID: idPrefix + "-dynamic",
		Title: fmt.Sprintf("%s — dynamic power/node [W] (%s, load %g)", title,
			strings.ToUpper(runs[0].Spec.Traffic.Pattern), runs[0].Spec.Traffic.Rate),
		Header: []string{"network", "buffers", "crossbars", "wires", "total"},
	}
	for _, r := range runs {
		n := r.net
		name := cmp.Or(r.Spec.Network.Preset, n.Name)
		a := power.Area(n, r.buf, t).PerNodeCM2(n.N())
		area.AddRowF(name, a.IRouters, a.ARouters, a.RRWires, a.RNWires, a.Total())
		s := power.Static(n, r.buf, t)
		nn := float64(n.N())
		stat.AddRowF(name, s.Routers/nn, s.Wires/nn, s.Total()/nn)
		act := power.ActivityOf(n, r.Metrics.Throughput, r.Metrics.AvgHops, t, flitBits)
		d := power.Dynamic(act, t)
		dyn.AddRowF(name, d.Buffers/nn, d.Crossbars/nn, d.Wires/nn, d.Total()/nn)
	}
	return []*stats.Table{area, stat, dyn}
}

// bothTechs renders an activity grid's area/power tables at 45 and 22 nm.
func bothTechs(r FigureRun, id, title string) ([]*stats.Table, error) {
	res, err := r.results(0)
	if err != nil {
		return nil, err
	}
	runs, err := pricedAll(res)
	if err != nil {
		return nil, err
	}
	var out []*stats.Table
	for _, t := range techs {
		out = append(out, areaPowerTables(runs, fmt.Sprintf("%s-%s", id, t.Name),
			fmt.Sprintf(title, t.Name), t)...)
	}
	return out, nil
}

// fig15 is Fig. 15: area per SN layout, and area + static power for the
// N=200 networks, no SMART — entirely from the analytical models.
func fig15(Options) Figure {
	f := analytic("Area and static power, N=200, no SMART", "Fig. 15", fig15Tables,
		lowerInCol("sn-area-below-fbf", "SN takes less area than FBF (34% less; Fig. 15b, §5.4)",
			"fig15b", "total", "sn_subgr_200", "fbf4"))
	f.Notes = "Computed entirely from the analytical area/power models."
	return f
}

func fig15Tables() ([]*stats.Table, error) {
	t45 := power.Tech45()
	layouts := &stats.Table{
		ID:     "fig15a",
		Title:  "Total area per SN layout, N=200, no SMART (Fig. 15a) [cm^2]",
		Header: []string{"layout", "total_area"},
	}
	for _, l := range []string{"sn_rand_200", "sn_basic_200", "sn_gr_200", "sn_subgr_200"} {
		n, err := preset(l)
		if err != nil {
			return nil, err
		}
		layouts.AddRowF(l, power.Area(n, power.Buffers(n, plainEB, flitBits), t45).Total())
	}
	nets := &stats.Table{
		ID:     "fig15b",
		Title:  "Total area, N=200 networks, no SMART (Fig. 15b) [cm^2]",
		Header: []string{"network", "i_routers", "a_routers", "RR_wires", "RN_wires", "total"},
	}
	pow := &stats.Table{
		ID:     "fig15c",
		Title:  "Total static power, N=200 networks, no SMART (Fig. 15c) [W]",
		Header: []string{"network", "routers", "wires", "total"},
	}
	for _, name := range []string{"fbf4", "pfbf4", "sn_subgr_200", "t2d4", "cm4"} {
		n, err := preset(name)
		if err != nil {
			return nil, err
		}
		buf := power.Buffers(n, plainEB, flitBits)
		a := power.Area(n, buf, t45)
		nets.AddRowF(name, a.IRouters, a.ARouters, a.RRWires, a.RNWires, a.Total())
		s := power.Static(n, buf, t45)
		pow.AddRowF(name, s.Routers, s.Wires, s.Total())
	}
	return []*stats.Table{layouts, nets, pow}, nil
}

// fig16 is Fig. 16: per-node area/static/dynamic power with SMART for the
// small networks, at 45 and 22 nm.
func fig16(o Options) Figure {
	return Figure{
		Title: "Area/power per node, small networks, SMART, 45+22nm", Section: "Fig. 16",
		Sweeps: []slimnoc.SweepSpec{
			activityGrid(o, "fig16", []string{"fbf3", "fbf4", "pfbf3", "sn_subgr_200", "t2d4", "cm4"}),
		},
		Notes: "The grid provides the dynamic-power activity runs; area and static power are analytical. The derived tables give the full per-node breakdown.",
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			return bothTechs(r, "fig16", "N in {192,200}, SMART, %s (Fig. 16)")
		},
		Claims: []Claim{lowerInCol("sn-static-below-fbf",
			"SN's static power per node is below FBF's (46% less; Fig. 16, §5.4)",
			"fig16-45nm-static", "total", "sn_subgr_200", "fbf3")},
	}
}

// fig17 is Fig. 17: the same analysis at N = 1296.
func fig17(o Options) Figure {
	return Figure{
		Title: "Area/power per node, N=1296, SMART, 45+22nm", Section: "Fig. 17",
		Sweeps: []slimnoc.SweepSpec{
			activityGrid(o, "fig17", []string{"fbf8", "fbf9", "pfbf9", "sn_gr_1296", "t2d9", "cm9"}),
		},
		Notes: "As fig16.",
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			return bothTechs(r, "fig17", "N=1296, SMART, %s (Fig. 17)")
		},
		Claims: []Claim{lowerInCol("sn-static-below-fbf",
			"At N=1296, SN's static power per node is below FBF's (41-44% less; Fig. 17, §5.4)",
			"fig17-45nm-static", "total", "sn_gr_1296", "fbf8")},
	}
}

// fig19 is Fig. 19, the small-scale (N = 54) analysis: the latency panel
// and the area/dynamic power panels (45 nm, SMART).
func fig19(o Options) Figure {
	return Figure{
		Title: "Small-scale analysis, N=54", Section: "Fig. 19",
		Sweeps: []slimnoc.SweepSpec{
			latencyGrid(o, "fig19a", []string{"fbf54", "pfbf54", "sn_subgr_54", "t2d54"}, []string{"rnd"}, true),
			activityGrid(o, "fig19bc", []string{"sn_subgr_54", "fbf54", "pfbf54", "t2d54"}),
		},
		Notes: "fig19a is the latency panel; fig19bc feeds the area/power panels of the derived tables.",
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			lat, err := latencyTables(r, 0, "fig19a", "Latency, %s, N=54, SMART (Fig. 19a)")
			if err != nil {
				return nil, err
			}
			res, err := r.results(1)
			if err != nil {
				return nil, err
			}
			runs, err := pricedAll(res)
			if err != nil {
				return nil, err
			}
			return append(lat, areaPowerTables(runs, "fig19bc", "N=54, SMART, 45nm (Fig. 19b/c)", power.Tech45())...), nil
		},
		Claims: []Claim{lowerInRow("sn-below-t2d", "At N=54 SN's latency is below the torus's (~15% lower; Fig. 19a, §5.6)",
			"fig19a", "0.008", "sn_subgr_54", "t2d54")},
	}
}

// throughputPerPower computes the §5.4 metric of one activity run: the
// flits delivered per joule at the run's accepted throughput, with static
// power priced as the run was simulated (priced).
func throughputPerPower(r pricedRun, t power.Tech) float64 {
	st := power.Static(r.net, r.buf, t)
	act := power.ActivityOf(r.net, r.Metrics.Throughput, r.Metrics.AvgHops, t, flitBits)
	dy := power.Dynamic(act, t)
	return power.ThroughputPerPower(act.FlitsPerCycle, r.net.CycleTimeNs, st, dy)
}

// fig1bc is Fig. 1b/c: throughput per power at N = 1296 for 45 and 22 nm.
func fig1bc(o Options) Figure {
	return Figure{
		Title: "Throughput per power, N=1296, 45/22nm", Section: "Fig. 1b/c",
		Sweeps: []slimnoc.SweepSpec{
			activityGrid(o, "fig1bc", []string{"sn_gr_1296", "fbf9", "t2d9", "cm9"}),
		},
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			res, err := r.results(0)
			if err != nil {
				return nil, err
			}
			t := &stats.Table{
				ID:     "fig1bc",
				Title:  "Throughput/Power [flits/J], RND at saturation, N=1296 (Fig. 1b/c)",
				Header: []string{"network", "45nm", "22nm"},
			}
			runs, err := pricedAll(res)
			if err != nil {
				return nil, err
			}
			for _, p := range runs {
				t.AddRowF(p.Spec.Network.Preset, throughputPerPower(p, power.Tech45()), throughputPerPower(p, power.Tech22()))
			}
			return []*stats.Table{t}, nil
		},
		Claims: []Claim{lowerInCol("sn-above-torus",
			"SN's throughput per power beats the torus's (by >150%; Fig. 1b/c, §1)",
			"fig1bc", "45nm", "t2d9", "sn_gr_1296")},
	}
}

// tab5 is Table 5: SN's relative throughput/power improvement over each
// baseline, for both size classes and both technology nodes. Each size
// class is one SN followed by its baselines in the activity grid.
func tab5(o Options) Figure {
	groups := [][]string{
		{"sn_subgr_200", "t2d4", "cm4", "pfbf3", "fbf3", "fbf4"},
		{"sn_gr_1296", "t2d9", "cm9", "pfbf9", "fbf8", "fbf9"},
	}
	return Figure{
		Title: "SN throughput/power advantage (RND)", Section: "Table 5",
		Sweeps: []slimnoc.SweepSpec{activityGrid(o, "tab5", append(groups[0], groups[1]...))},
		Notes:  "Gain percentages divide throughput/power pairs per tech node of the same runs.",
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			res, err := r.results(0)
			if err != nil {
				return nil, err
			}
			t := &stats.Table{
				ID:     "tab5",
				Title:  "SN throughput/power advantage (RND) (Table 5)",
				Header: []string{"tech", "vs", "SN_gain_%"},
			}
			runs, err := pricedAll(res)
			if err != nil {
				return nil, err
			}
			for _, tech := range techs {
				first := 0
				for _, g := range groups {
					sn := throughputPerPower(runs[first], tech)
					for i, b := range g[1:] {
						base := throughputPerPower(runs[first+1+i], tech)
						gain := 0.0
						if base > 0 {
							gain = (sn/base - 1) * 100
						}
						t.AddRowF(tech.Name, fmt.Sprintf("%s(%s)", b, g[0]), gain)
					}
					first += len(g)
				}
			}
			return []*stats.Table{t}, nil
		},
	}
}

// sec55Claim is the §5.5 folded-Clos claim, at both size classes.
var sec55Claim = Claim{
	ID:    "sn-area-below-clos",
	Paper: "SN takes less area than a folded Clos (~24-26% less; §5.5)",
	Eval: func(r *Reader) (float64, bool) {
		least := math.Min(r.num("sec55", "200", "sn_smaller_by_%"), r.num("sec55", "1296", "sn_smaller_by_%"))
		return least, least > 0
	},
}

// sec55Tables renders the §5.5 hierarchical-NoC comparison: SN's total area
// versus a folded Clos at both size classes.
func sec55Tables() ([]*stats.Table, error) {
	t := &stats.Table{
		ID:     "sec55",
		Title:  "SN vs folded Clos total area [cm^2] (§5.5)",
		Header: []string{"N", "sn_area", "clos_area", "sn_smaller_by_%"},
	}
	t45 := power.Tech45()
	cases := []struct {
		n    int
		sn   string
		clos *topo.Network
	}{
		{200, "sn_subgr_200", topo.FoldedClos(25, 7, 8)},
		{1296, "sn_gr_1296", topo.FoldedClos(162, 13, 8)},
	}
	for _, c := range cases {
		sn, err := preset(c.sn)
		if err != nil {
			return nil, err
		}
		snArea := power.Area(sn, power.Buffers(sn, smartEB, flitBits), t45).Total()
		closArea := power.Area(c.clos, power.Buffers(c.clos, smartEB, flitBits), t45).Total()
		t.AddRowF(c.n, snArea, closArea, (1-snArea/closArea)*100)
	}
	return []*stats.Table{t}, nil
}

// PowerTables simulates one spec and renders its §5.4 analysis at a tech
// node (45nm or 22nm) through the builders the figures use: the network's
// size, buffer storage, accepted throughput and throughput per power, then
// its per-node area, static power and dynamic power (areaPowerTables).
func PowerTables(ctx context.Context, spec slimnoc.RunSpec, tech string) ([]*stats.Table, error) {
	i := slices.IndexFunc(techs, func(t power.Tech) bool { return t.Name == tech })
	if i < 0 {
		return nil, fmt.Errorf("exp: unknown tech %q (have 45nm, 22nm)", tech)
	}
	t := techs[i]
	res, err := slimnoc.Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	r, err := priced(res)
	if err != nil {
		return nil, err
	}
	n := r.net
	name := cmp.Or(r.Spec.Network.Preset, n.Name)
	title := fmt.Sprintf("%s, %s", name, t.Name)
	if r.Spec.SMART {
		title += ", SMART"
	}
	sum := &stats.Table{
		ID:     "power",
		Title:  title + " — network and throughput/power",
		Header: []string{"network", "Nr", "N", "k'", "buffer_flits", "accepted", "flits_per_J"},
	}
	sum.AddRowF(name, n.Nr, n.N(), n.NetworkRadix(), r.buf.TotalFlits, r.Metrics.Throughput, throughputPerPower(r, t))
	return append([]*stats.Table{sum}, areaPowerTables([]pricedRun{r}, "power", title, t)...), nil
}
