// Analytic artifacts from the construction and layout models: Table 2,
// Table 3, Table 4, Fig. 5 and Fig. 6. None of them simulates.

package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/stats"
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
	m := core.DefaultBufferModel()
	sm := m.WithSMART()

	mt := &stats.Table{ID: "fig5a", Title: "Average wire length M vs N per layout (Fig. 5a)",
		Header: []string{"q", "N_ideal"}}
	bt := &stats.Table{ID: "fig5b", Title: "Per-router buffer size, no SMART (Fig. 5b) [flits]",
		Header: []string{"q", "N_ideal"}}
	st := &stats.Table{ID: "fig5c", Title: "Per-router buffer size, SMART (Fig. 5c) [flits]",
		Header: []string{"q", "N_ideal"}}
	wt := &stats.Table{ID: "fig5d", Title: "Max wires over a router vs W bound, 22nm (Fig. 5d)",
		Header: []string{"q", "N_ideal"}}
	for _, l := range core.Layouts() {
		name := "sn_" + string(l)
		mt.Header = append(mt.Header, name)
		bt.Header = append(bt.Header, name)
		st.Header = append(st.Header, name)
		wt.Header = append(wt.Header, name)
	}
	bt.Header = append(bt.Header, "CBR20", "CBR40")
	st.Header = append(st.Header, "CBR20", "CBR40")
	wt.Header = append(wt.Header, "W_bound_22nm")

	w22 := core.WiringConstraints()[1]
	for _, q := range qs {
		kp, _ := core.KPrimeFor(q)
		p := (kp + 1) / 2
		s, err := core.New(core.Params{Q: q, P: p})
		if err != nil {
			return nil, err
		}
		mrow := []interface{}{q, s.N()}
		brow := []interface{}{q, s.N()}
		srow := []interface{}{q, s.N()}
		wrow := []interface{}{q, s.N()}
		var cb20, cb40 float64
		for _, l := range core.Layouts() {
			net, err := s.Network(l, o.Seed+7)
			if err != nil {
				return nil, err
			}
			mrow = append(mrow, net.AvgWireLength())
			brow = append(brow, m.PerRouterEdgeBuffers(net))
			srow = append(srow, sm.PerRouterEdgeBuffers(net))
			wrow = append(wrow, core.MaxWireCrossing(net))
			cb20 = m.PerRouterCentralBuffers(net, 20)
			cb40 = m.PerRouterCentralBuffers(net, 40)
		}
		brow = append(brow, cb20, cb40)
		srow = append(srow, cb20, cb40)
		wrow = append(wrow, w22.MaxWires())
		mt.AddRowF(mrow...)
		bt.AddRowF(brow...)
		st.AddRowF(srow...)
		wt.AddRowF(wrow...)
	}
	return []*stats.Table{mt, bt, st, wt}, nil
}

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
		t := &stats.Table{
			ID:     fmt.Sprintf("fig6-N%d", n),
			Title:  fmt.Sprintf("Link distance distribution, N=%d (Fig. 6)", n),
			Header: []string{"distance_range", "sn_gr", "sn_subgr"},
		}
		gr, err := s.Network(core.LayoutGroup, 1)
		if err != nil {
			return nil, err
		}
		sg, err := s.Network(core.LayoutSubgroup, 1)
		if err != nil {
			return nil, err
		}
		dg := core.DistanceDistribution(gr)
		ds := core.DistanceDistribution(sg)
		bins := len(dg)
		if len(ds) > bins {
			bins = len(ds)
		}
		for b := 0; b < bins; b++ {
			t.AddRowF(fmt.Sprintf("%d-%d", 2*b+1, 2*b+2), at(dg, b), at(ds, b))
		}
		out = append(out, t)
	}
	return out, nil
}

func at(xs []float64, i int) float64 {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}
