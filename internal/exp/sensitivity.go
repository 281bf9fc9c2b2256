// Sensitivity and robustness analyses summarised in §5.5, plus the link-
// failure resilience study motivated by §2.1's expander argument. These are
// the "further analysis" experiments the paper reports as one-line
// conclusions; here each gets a full table.

package exp

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/stats"
	"repro/slimnoc"
)

// sensSizes is §5.5 "Other Network Sizes": SN versus torus and FBF at N in
// {588, 686, 1024} — latency at a moderate RND load plus total area. The
// torus and FBF are explicitly parameterised networks beside the SN preset.
func sensSizes(o Options) Figure {
	type size struct {
		n          int
		sn         string
		x, y, conc int
	}
	sizes := []size{
		{588, "sn_subgr_588", 14, 7, 6},
		{686, "sn_subgr_686", 14, 7, 7},
		{1024, "sn_subgr_1024", 16, 8, 8},
	}
	if o.Quick {
		sizes = sizes[2:]
	}
	var sweeps []slimnoc.SweepSpec
	for _, s := range sizes {
		base := simBase(o)
		base.SMART = true
		base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.06}
		sweeps = append(sweeps, slimnoc.SweepSpec{
			Name: fmt.Sprintf("sens-sizes/%d", s.n),
			Base: base,
			Axes: slimnoc.SweepAxes{
				Presets: []string{s.sn},
				Networks: []slimnoc.NetworkSpec{
					{Topology: "torus", X: s.x, Y: s.y, Conc: s.conc},
					{Topology: "flatfly", X: s.x, Y: s.y, Conc: s.conc},
				},
			},
		})
	}
	return Figure{
		Title: "Other network sizes: N in {588, 686, 1024}", Section: "§5.5",
		Sweeps: sweeps,
		Notes:  "Area columns are analytical; the derived table renders them alongside the latencies.",
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			t := &stats.Table{
				ID:    "sens-sizes",
				Title: "Other network sizes (§5.5): RND latency and area",
				Header: []string{"N", "network", "k'", "latency_cycles", "latency_ns",
					"area_cm2"},
			}
			t45 := power.Tech45()
			for si, s := range sizes {
				res, err := r.results(si)
				if err != nil {
					return nil, err
				}
				names := []string{s.sn, fmt.Sprintf("t2d_%d", s.n), fmt.Sprintf("fbf_%d", s.n)}
				for i, p := range res {
					pr, err := priced(p)
					if err != nil {
						return nil, err
					}
					area := power.Area(pr.net, pr.buf, t45).Total()
					t.AddRowF(s.n, names[i], p.Network.NetworkRadix, p.Metrics.AvgLatencyCycles,
						p.Metrics.AvgLatencyNs, area)
				}
			}
			return []*stats.Table{t}, nil
		},
		Claims: []Claim{lowerInCol("sn-below-torus-1024",
			"SN's latency advantage over the torus holds at other network sizes (§5.5)",
			"sens-sizes", "latency_ns", "1024/sn_subgr_1024", "1024/t2d_1024")},
	}
}

// sensConc is §5.5 "Concentration": SN with q=8 across the Table 2
// concentration range (p = 4..8), showing the node-density vs contention
// tradeoff (κ in §2.1). p is a construction parameter, so the sweep's
// network axis carries one explicit NetworkSpec per value.
func sensConc(o Options) Figure {
	ps := []int{4, 5, 6, 7, 8}
	if o.Quick {
		ps = []int{4, 6, 8}
	}
	nets := make([]slimnoc.NetworkSpec, len(ps))
	for i, p := range ps {
		nets[i] = slimnoc.NetworkSpec{Topology: "sn", Q: 8, Conc: p, Layout: "subgr"}
	}
	base := simBase(o)
	base.SMART = true
	base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.24}
	return Figure{
		Title: "Concentration sweep, SN q=8", Section: "§5.5 / §2.1",
		Sweeps: []slimnoc.SweepSpec{{
			Name: "sens-conc",
			Base: base,
			Axes: slimnoc.SweepAxes{Networks: nets},
		}},
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			res, err := r.results(0)
			if err != nil {
				return nil, err
			}
			t := &stats.Table{
				ID:    "sens-conc",
				Title: "Concentration sweep, SN q=8 (§5.5 / §2.1 κ tradeoff)",
				Header: []string{"p", "N", "subscription_%", "latency_cycles",
					"throughput", "saturated"},
			}
			for i, p := range ps {
				m := res[i].Metrics
				t.AddRowF(p, res[i].Network.Nodes, float64(p)/6*100, m.AvgLatencyCycles, m.Throughput, m.Saturated)
			}
			return []*stats.Table{t}, nil
		},
		Claims: []Claim{{
			ID:    "throughput-flat-in-p",
			Paper: "Raising concentration at a fixed per-node load adds network pressure, so per-node throughput does not grow with p (within 10%; §5.5 / §2.1)",
			Eval: func(r *Reader) (float64, bool) {
				ratio := r.num("sens-conc", "8", "throughput") / r.num("sens-conc", "4", "throughput")
				return ratio, ratio <= 1.1
			},
		}},
	}
}

// sensCycle is the §5.1 cycle-time accounting: the same RND run reported in
// cycles and in nanoseconds under per-topology versus uniform clocks,
// showing which conclusions depend on the clock model.
func sensCycle(o Options) Figure {
	base := simBase(o)
	base.SMART = true
	base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.06}
	return Figure{
		Title: "Cycle-time sensitivity, N in {192,200}", Section: "§5.1",
		Sweeps: []slimnoc.SweepSpec{{
			Name: "sens-cycle",
			Base: base,
			Axes: slimnoc.SweepAxes{Presets: []string{"cm3", "t2d3", "pfbf3", "sn_subgr_200", "fbf3"}},
		}},
		Notes: "The derived table converts each latency to nanoseconds under per-topology and uniform clocks.",
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			res, err := r.results(0)
			if err != nil {
				return nil, err
			}
			t := &stats.Table{
				ID:    "sens-cycle",
				Title: "Cycle-time sensitivity: RND load 0.06, N in {192,200} (§5.1)",
				Header: []string{"network", "latency_cycles", "cycle_ns",
					"latency_ns", "latency_ns_uniform_0.5"},
			}
			for _, p := range res {
				lat := p.Metrics.AvgLatencyCycles
				t.AddRowF(p.Spec.Network.Preset, lat, p.Network.CycleTimeNs, p.Metrics.AvgLatencyNs, lat*0.5)
			}
			return []*stats.Table{t}, nil
		},
	}
}

// resil verifies the §2.1 expander claim: remove a growing fraction of
// links and compare SN's connectivity, diameter and path-length inflation
// against torus and FBF of the same size, plus simulated latency where the
// damaged diameter stays small enough for deadlock-free ascending VCs. The
// structural analysis decides which damaged networks are simulable; each
// of those is one single-point sweep, routed generic-minimal with one VC
// per hop of its diameter (at least two), the undamaged rows included.
func resil(o Options) Figure {
	fracs := []float64{0, 0.05, 0.10, 0.20}
	if o.Quick {
		fracs = []float64{0, 0.10}
	}
	type row struct {
		frac      float64
		name      string
		conn, avg float64
		diam      int
		sweep     int // index into the sweeps, -1 = not simulable
	}
	var rows []row
	var sweeps []slimnoc.SweepSpec
	var buildErr error
	for _, frac := range fracs {
		for _, name := range []string{"sn_subgr_200", "fbf4", "t2d4"} {
			ns := slimnoc.NetworkSpec{Preset: name}
			if frac > 0 {
				ns.FailFrac, ns.FailSeed = frac, o.Seed+11
			}
			net, _, err := slimnoc.BuildNetwork(ns)
			if err != nil {
				buildErr = err
				continue
			}
			r := row{frac: frac, name: name, conn: net.Connectivity(),
				diam: net.Diameter(), avg: net.AvgShortestPath(), sweep: -1}
			// Simulate only when connected and the diameter admits
			// deadlock-free ascending VCs with a sane VC count.
			if r.diam > 0 && r.diam <= 6 {
				base := simBase(o)
				base.Network = ns
				base.Routing = slimnoc.RoutingSpec{Algorithm: "minimal", VCs: max(r.diam, 2)}
				base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.06}
				r.sweep = len(sweeps)
				sweeps = append(sweeps, slimnoc.SweepSpec{
					Name: fmt.Sprintf("resil/fail%.0f/%s", frac*100, name),
					Base: base,
				})
			}
			rows = append(rows, r)
		}
	}
	return Figure{
		Title: "Link-failure resilience, N=200-class networks", Section: "§2.1",
		Sweeps: sweeps,
		Notes: "Each simulable damaged network (connected, diameter at most 6) is one single-point sweep; " +
			"the derived table adds the connectivity, diameter and path-length columns of every network.",
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			if buildErr != nil {
				return nil, buildErr
			}
			t := &stats.Table{
				ID:    "resil",
				Title: "Link-failure resilience, N=200-class networks (§2.1 expander claim)",
				Header: []string{"fail_%", "network", "connectivity", "diameter",
					"avg_path", "latency_cycles"},
			}
			for _, row := range rows {
				lat := "n/a"
				if row.sweep >= 0 {
					res, err := r.results(row.sweep)
					if err != nil {
						return nil, err
					}
					lat = fmtLat(res[0].Metrics)
				}
				t.AddRowF(fmt.Sprintf("%.0f", row.frac*100), row.name, row.conn, row.diam, row.avg, lat)
			}
			return []*stats.Table{t}, nil
		},
		Claims: []Claim{{
			ID: "sn-survives-10pct",
			Paper: "As an expander, SN with 10% of its links failed stays connected with a small diameter (at most 4), " +
				"so it still routes deadlock-free and is simulated (§2.1)",
			Eval: func(r *Reader) (float64, bool) {
				conn, diam := r.num("resil", "10/sn_subgr_200", "connectivity"), r.num("resil", "10/sn_subgr_200", "diameter")
				return diam, conn >= 0.99 && diam <= 4 && r.cell("resil", "10/sn_subgr_200", "latency_cycles") != "n/a"
			},
		}},
	}
}
