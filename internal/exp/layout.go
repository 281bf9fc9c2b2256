// Analytic artifacts from the construction and layout models: Table 2,
// Table 3, Table 4, Fig. 5 and Fig. 6, and the same layout analysis for any
// one Slim NoC (LayoutTables). None of them simulates.

package exp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/slimnoc"
)

// tab2Tables renders Table 2: every Slim NoC configuration with N <= 1300.
func tab2Tables() ([]*stats.Table, error) {
	t := &stats.Table{
		ID:    "tab2",
		Title: "Slim NoC configurations with N <= 1300 (Table 2)",
		Header: []string{"k'", "p", "ideal_p", "subscription", "N", "Nr", "q",
			"field", "pow2_N", "square_groups"},
	}
	for _, r := range core.EnumerateConfigs(1300) {
		field := "prime"
		if r.NonPrime {
			field = "non-prime"
		}
		t.AddRowF(r.KPrime, r.P, r.IdealP, fmt.Sprintf("%.0f%%", r.Subscription*100),
			r.N, r.Nr, r.Q, field, r.PowerOfTwoN, r.SquareGroups)
	}
	return []*stats.Table{t}, nil
}

// tab3Tables renders Table 3: the hand-built operation tables of F8 and F9.
func tab3Tables() ([]*stats.Table, error) {
	var out []*stats.Table
	for _, q := range []int{9, 8} {
		f, err := gf.New(q)
		if err != nil {
			return nil, err
		}
		add := &stats.Table{
			ID:     fmt.Sprintf("tab3-add-F%d", q),
			Title:  fmt.Sprintf("Addition table of F%d (Table 3)", q),
			Header: headerFor(f),
		}
		mul := &stats.Table{
			ID:     fmt.Sprintf("tab3-mul-F%d", q),
			Title:  fmt.Sprintf("Product table of F%d (Table 3)", q),
			Header: headerFor(f),
		}
		for a := 0; a < q; a++ {
			arow := []string{f.Name(a)}
			mrow := []string{f.Name(a)}
			for b := 0; b < q; b++ {
				arow = append(arow, f.Name(f.Add(a, b)))
				mrow = append(mrow, f.Name(f.Mul(a, b)))
			}
			add.AddRow(arow...)
			mul.AddRow(mrow...)
		}
		neg := &stats.Table{
			ID:     fmt.Sprintf("tab3-neg-F%d", q),
			Title:  fmt.Sprintf("Inverse element table of F%d (Table 3)", q),
			Header: []string{"el", "-el"},
		}
		for a := 0; a < q; a++ {
			neg.AddRow(f.Name(a), f.Name(f.Neg(a)))
		}
		out = append(out, add, mul, neg)
	}
	return out, nil
}

func headerFor(f *gf.Field) []string {
	h := []string{"+/x"}
	for a := 0; a < f.Order(); a++ {
		h = append(h, f.Name(a))
	}
	return h
}

// tab4Tables renders Table 4: the compared configurations for both size
// classes.
func tab4Tables() ([]*stats.Table, error) {
	t := &stats.Table{
		ID:     "tab4",
		Title:  "Considered configurations (Table 4)",
		Header: []string{"network", "D", "p", "k'", "k", "Nr", "N", "cycle_ns"},
	}
	names := []string{
		"t2d3", "t2d4", "cm3", "cm4", "fbf3", "fbf4", "pfbf3", "pfbf4", "sn_subgr_200",
		"t2d9", "t2d8", "cm9", "cm8", "fbf9", "fbf8", "pfbf9", "pfbf8", "sn_gr_1296",
	}
	for _, name := range names {
		n, err := preset(name)
		if err != nil {
			return nil, err
		}
		t.AddRowF(name, n.Diameter(), n.P, n.NetworkRadix(), n.RouterRadix(),
			n.Nr, n.N(), n.CycleTimeNs)
	}
	return []*stats.Table{t}, nil
}

// fig5Tables renders Fig. 5: average wire length M, total per-router buffer size
// without and with SMART, and the maximum wire crossing count versus the
// Eq. 3 bound, for every layout across network sizes.
func fig5Tables(o Options) ([]*stats.Table, error) {
	qs := []int{3, 5, 7, 9, 11, 13}
	if o.Quick {
		qs = []int{3, 5, 9}
	}
	f := newFig5("N_ideal", core.WiringConstraints()[1:2])
	for _, q := range qs {
		kp, _ := core.KPrimeFor(q)
		s, err := core.New(core.Params{Q: q, P: (kp + 1) / 2})
		if err != nil {
			return nil, err
		}
		nets := map[core.Layout]*topo.Network{}
		for _, l := range core.Layouts() {
			if nets[l], err = s.Network(l, o.Seed+7); err != nil {
				return nil, err
			}
		}
		f.add(q, s.N(), nets)
	}
	return f.tables(), nil
}

// fig5 accumulates Fig. 5's four tables, one row per Slim NoC and one
// column per layout: average wire length M, per-router buffers without
// and with SMART (plus CBR-20/40 for reference), and the maximum wire
// crossing count against the given Eq. 3 bounds.
type fig5 struct {
	m, eb, smart, wires *stats.Table
	bounds              []core.WiringConstraint
}

// newFig5 starts Fig. 5's tables; nCol names the column after q that
// holds each row's node count.
func newFig5(nCol string, bounds []core.WiringConstraint) *fig5 {
	header := func(extra ...string) []string {
		h := []string{"q", nCol}
		for _, l := range core.Layouts() {
			h = append(h, "sn_"+string(l))
		}
		return append(h, extra...)
	}
	var nodes, wCols []string
	for _, wc := range bounds {
		nodes = append(nodes, wc.Node)
		wCols = append(wCols, "W_bound_"+wc.Node)
	}
	return &fig5{
		m: &stats.Table{ID: "fig5a", Title: "Average wire length M vs N per layout (Fig. 5a)",
			Header: header()},
		eb: &stats.Table{ID: "fig5b", Title: "Per-router buffer size, no SMART (Fig. 5b) [flits]",
			Header: header("CBR20", "CBR40")},
		smart: &stats.Table{ID: "fig5c", Title: "Per-router buffer size, SMART (Fig. 5c) [flits]",
			Header: header("CBR20", "CBR40")},
		wires: &stats.Table{ID: "fig5d",
			Title:  fmt.Sprintf("Max wires over a router vs W bound, %s (Fig. 5d)", strings.Join(nodes, "/")),
			Header: header(wCols...)},
		bounds: bounds,
	}
}

// add appends the rows of a Slim NoC of parameter q and n nodes, given
// its network under every layout.
func (f *fig5) add(q, n int, nets map[core.Layout]*topo.Network) {
	mrow := []interface{}{q, n}
	brow := []interface{}{q, n}
	srow := []interface{}{q, n}
	wrow := []interface{}{q, n}
	for _, l := range core.Layouts() {
		net := nets[l]
		mrow = append(mrow, net.AvgWireLength())
		brow = append(brow, float64(plainEB.Flits(net))/float64(net.Nr))
		srow = append(srow, float64(smartEB.Flits(net))/float64(net.Nr))
		wrow = append(wrow, core.MaxWireCrossing(net))
	}
	// Central buffers (Eq. 6) do not depend on the layout.
	ref := nets[core.LayoutSubgroup]
	cb20 := float64(core.Buffers{Scheme: core.CBR, VCs: 2, CBCap: 20}.Eq6Flits(ref)) / float64(ref.Nr)
	cb40 := float64(core.Buffers{Scheme: core.CBR, VCs: 2, CBCap: 40}.Eq6Flits(ref)) / float64(ref.Nr)
	brow = append(brow, cb20, cb40)
	srow = append(srow, cb20, cb40)
	for _, wc := range f.bounds {
		wrow = append(wrow, wc.MaxWires())
	}
	f.m.AddRowF(mrow...)
	f.eb.AddRowF(brow...)
	f.smart.AddRowF(srow...)
	f.wires.AddRowF(wrow...)
}

func (f *fig5) tables() []*stats.Table { return []*stats.Table{f.m, f.eb, f.smart, f.wires} }

// fig5Claims are Fig. 5's layout-cost claims.
var fig5Claims = []Claim{
	lowerInRow("subgr-cuts-m",
		"The subgroup layout cuts the average wire length M versus a random layout (~25%; Fig. 5a, §3.3)",
		"fig5a", "9", "sn_subgr", "sn_rand"),
	{
		ID:    "wires-within-22nm-bound",
		Paper: "Every layout's wiring over a router stays within the 22 nm bound W (Eq. 3; Fig. 5d, §3.3)",
		Eval: func(r *Reader) (float64, bool) {
			worst := 0.0
			for _, q := range r.Labels("fig5d") {
				for _, l := range core.Layouts() {
					worst = math.Max(worst, r.Num("fig5d", q, "sn_"+string(l))/r.Num("fig5d", q, "W_bound_22nm"))
				}
			}
			return worst, worst <= 1
		},
	},
}

// fig6Tables renders Fig. 6: the distribution of link Manhattan distances for the
// group and subgroup layouts at N in {200, 1024, 1296}.
func fig6Tables() ([]*stats.Table, error) {
	var out []*stats.Table
	for _, n := range []int{200, 1024, 1296} {
		params, err := core.FromNetworkSize(n)
		if err != nil {
			return nil, err
		}
		s, err := core.New(params)
		if err != nil {
			return nil, err
		}
		gr, err := s.Network(core.LayoutGroup, 1)
		if err != nil {
			return nil, err
		}
		sg, err := s.Network(core.LayoutSubgroup, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, fig6Table(n, gr, sg))
	}
	return out, nil
}

// fig6Table is one Fig. 6 panel: the link-distance distributions of an
// n-node Slim NoC under the group (gr) and subgroup (sg) layouts, in
// 2-wide bins.
func fig6Table(n int, gr, sg *topo.Network) *stats.Table {
	t := &stats.Table{
		ID:     fmt.Sprintf("fig6-N%d", n),
		Title:  fmt.Sprintf("Link distance distribution, N=%d (Fig. 6)", n),
		Header: []string{"distance_range", "sn_gr", "sn_subgr"},
	}
	dg := core.DistanceDistribution(gr)
	ds := core.DistanceDistribution(sg)
	for b := 0; b < max(len(dg), len(ds)); b++ {
		t.AddRowF(fmt.Sprintf("%d-%d", 2*b+1, 2*b+2), at(dg, b), at(ds, b))
	}
	return t
}

// LayoutTables renders the §3.3 layout analysis of the Slim NoC a network
// spec names, under every layout at the spec's q and concentration: each
// layout's router grid and size, Fig. 5's row for it (with every Eq. 3
// bound) and, with dist, its Fig. 6 link-distance distribution.
func LayoutTables(ns slimnoc.NetworkSpec, dist bool) ([]*stats.Table, error) {
	ns, err := slimnoc.ExpandNetwork(ns)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	if ns.Topology != "sn" {
		return nil, fmt.Errorf("exp: layout analysis covers Slim NoC layouts only, got topology %q", ns.Topology)
	}
	grid := &stats.Table{
		ID:     "layouts",
		Title:  fmt.Sprintf("Slim NoC q=%d layouts", ns.Q),
		Header: []string{"network", "die", "Nr", "N", "k'"},
	}
	nets := map[core.Layout]*topo.Network{}
	for _, l := range core.Layouts() {
		ns.Layout = string(l)
		net, _, err := slimnoc.BuildNetwork(ns)
		if err != nil {
			return nil, fmt.Errorf("exp: %w", err)
		}
		x, y := net.GridDims()
		grid.AddRowF("sn_"+ns.Layout, fmt.Sprintf("%dx%d", x, y), net.Nr, net.N(), net.NetworkRadix())
		nets[l] = net
	}
	n := nets[core.LayoutSubgroup].N()
	f := newFig5("N", core.WiringConstraints())
	f.add(ns.Q, n, nets)
	out := append([]*stats.Table{grid}, f.tables()...)
	if dist {
		out = append(out, fig6Table(n, nets[core.LayoutGroup], nets[core.LayoutSubgroup]))
	}
	return out, nil
}

func at(xs []float64, i int) float64 {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}
