// The reproduction manifest: one declaration per figure and table of the
// paper's evaluation. A Figure carries the declarative SweepSpecs and
// saturation searches that generate its simulation points and, where the
// paper reports more than per-point metrics, a Derive that renders its
// exact tables (power models, EDP, gain percentages) from those points,
// plus the paper's Claims about those tables. cmd/snrepro runs any subset
// against a content-addressed result store (resumable, deduplicated across
// figures) and renders the derived tables and claim verdicts.

package exp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
	"repro/slimnoc"
)

// Figure is one manifest entry: a paper artifact, the declarative sweeps
// that reproduce its simulation grid, and the derivation of its tables. A
// figure with neither sweeps nor searches is analytic: its tables come from
// the analytical models alone.
type Figure struct {
	// ID names the artifact (fig12, tab5, abl-vcs, ...).
	ID string
	// Title names the artifact as the paper does.
	Title string
	// Section cites the paper section the artifact appears in.
	Section string
	// Sweeps are the figure's simulation grids. A figure spanning several
	// panels or base-spec variations (buffer capacities, SMART on/off,
	// trace benchmarks, routing algorithms) carries one sweep per
	// variation; points identical across sweeps and figures share one
	// result-store entry (slimnoc.PointKey ignores labels).
	Sweeps []slimnoc.SweepSpec
	// Sats are the figure's saturation-load searches (the sat-* family):
	// each binary-searches the offered load where the configuration's mean
	// latency crosses the threshold, reusing the result store so probes are
	// cached, resumable, and shared with grid sweeps over the same loads.
	Sats []slimnoc.SaturationSpec
	// MemBudget declares the per-point engine memory budget in bytes for
	// figures whose instances are large enough to need one (the scale-*
	// family). RunFigure enforces it via slimnoc.WithPointMemBudget unless
	// Options.MemBudget overrides; 0 means unbudgeted.
	MemBudget int64
	// Notes records what the per-point reports do not show, and how to get
	// it.
	Notes string
	// Derive renders the paper's tables from a completed run of this
	// figure (nil for figures whose per-point reports are the result). It
	// reads a point Result's Spec, Network, Metrics and Engine only — never
	// Raw, which is zero for points served from a result store — so warm
	// and cold runs derive byte-identical tables.
	Derive func(FigureRun) ([]*stats.Table, error) `json:"-"`
	// Claims are the paper's ordinal statements about the figure, judged
	// on the tables Derive renders (Judge).
	Claims []Claim
}

// Simulates reports whether the figure has a simulation grid or search;
// a figure that does not is analytic.
func (f Figure) Simulates() bool { return len(f.Sweeps) > 0 || len(f.Sats) > 0 }

// figures is the manifest in order: every figure's ID and its builder.
// Builders run lazily, so FigureByID pays only for the figure it returns.
var figures = []struct {
	id    string
	build func(Options) Figure
}{
	{"fig1a", fig1a},
	{"fig1bc", fig1bc},
	{"fig3", func(o Options) Figure {
		return analytic("Slim Fly and Dragonfly straight on-chip", "Fig. 3",
			func() ([]*stats.Table, error) { return fig3Tables(o) }, fig3Claim)
	}},
	{"tab2", func(Options) Figure {
		return analytic("Slim NoC configurations, N<=1300", "Table 2", tab2Tables)
	}},
	{"tab3", func(Options) Figure { return analytic("F8/F9 operation tables", "Table 3", tab3Tables) }},
	{"tab4", func(Options) Figure { return analytic("Compared configurations", "Table 4", tab4Tables) }},
	{"fig5", func(o Options) Figure {
		return analytic("Layout cost analysis: M, buffers, wiring", "Fig. 5",
			func() ([]*stats.Table, error) { return fig5Tables(o) }, fig5Claims...)
	}},
	{"fig6", func(Options) Figure { return analytic("Link distance distributions", "Fig. 6", fig6Tables) }},
	{"fig10a", fig10a},
	{"fig10b", fig10b},
	{"fig11", fig11},
	{"fig12", fig12},
	{"fig13", fig13},
	{"fig14", fig14},
	{"fig15", fig15},
	{"fig16", fig16},
	{"fig17", fig17},
	{"tab5", tab5},
	{"fig18", fig18},
	{"fig19", fig19},
	{"tab6", tab6},
	{"fig20", fig20},
	{"sec55", func(Options) Figure {
		return analytic("Folded Clos comparison", "§5.5", sec55Tables, sec55Claim)
	}},
	{"sens-sizes", sensSizes},
	{"sens-conc", sensConc},
	{"sens-cycle", sensCycle},
	{"resil", resil},
	{"abl-cbsize", ablCBSize},
	{"abl-vcs", ablVCs},
	{"abl-smarth", ablSmartH},
	{"scale-smoke", scaleSmoke},
	{"sat-nets", satNets},
	{"sat-schemes", satSchemes},
	{"sat-process", satProcess},
	{"scale-nets", scaleNets},
}

// analytic declares a figure with no simulation grid: its tables come from
// the analytical models alone.
func analytic(title, section string, tables func() ([]*stats.Table, error), claims ...Claim) Figure {
	return Figure{
		Title: title, Section: section,
		Derive: func(FigureRun) ([]*stats.Table, error) { return tables() },
		Claims: claims,
	}
}

// Manifest returns the full reproduction manifest for the mode. Every entry
// with sweeps expands to concrete, validated RunSpecs whose per-point seeds
// derive from o.Seed, so two invocations with equal Options produce
// identical grids — the property that makes a shared result store serve
// them byte-identically.
func Manifest(o Options) []Figure {
	out := make([]Figure, len(figures))
	for i, e := range figures {
		out[i] = e.build(o)
		out[i].ID = e.id
	}
	return out
}

// FigureByID builds one manifest entry.
func FigureByID(id string, o Options) (Figure, error) {
	id = strings.ToLower(id)
	for _, e := range figures {
		if e.id == id {
			f := e.build(o)
			f.ID = e.id
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("exp: unknown manifest figure %q (have %s)",
		id, strings.Join(figureIDs(), ", "))
}

// figureIDs lists the manifest IDs, sorted.
func figureIDs() []string {
	out := make([]string, len(figures))
	for i, e := range figures {
		out[i] = e.id
	}
	sort.Strings(out)
	return out
}

// simBase returns the base RunSpec every manifest sweep starts from.
func simBase(o Options) slimnoc.RunSpec {
	return slimnoc.RunSpec{Sim: o.simSpec()}
}

// latencyGrid builds the standard latency-vs-load sweep: one network axis,
// one or more patterns, the mode's loads.
func latencyGrid(o Options, name string, presets, patterns []string, smart bool) slimnoc.SweepSpec {
	base := simBase(o)
	base.SMART = smart
	return slimnoc.SweepSpec{
		Name: name,
		Base: base,
		Axes: slimnoc.SweepAxes{
			Presets:  presets,
			Patterns: patterns,
			Loads:    o.loads(),
		},
	}
}

// activityGrid builds the saturating-RND sweep feeding the power models:
// every network once, RND at the paper's 0.24 comparison load, SMART.
func activityGrid(o Options, name string, presets []string) slimnoc.SweepSpec {
	base := simBase(o)
	base.SMART = true
	base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.24}
	return slimnoc.SweepSpec{
		Name: name,
		Base: base,
		Axes: slimnoc.SweepAxes{Presets: presets},
	}
}

// scaleBudget is the scale-* family's per-point engine budget. Every route
// table, SN and grid baselines alike, is one next-hop byte per router pair
// (1.5 MiB for a 1260-router 10k grid or the 1250-router SN), so the budget
// is engine state: 256 MiB fits every 10k instance with room to spare, for
// the searches and the CI smoke point alike.
const scaleBudget = int64(1) << 28

// searchBase is the sat-* and scale-* families' point: one preset under
// one pattern, SMART.
func searchBase(o Options, preset, pattern string) slimnoc.RunSpec {
	b := simBase(o)
	b.SMART = true
	b.Network = slimnoc.NetworkSpec{Preset: preset}
	b.Traffic = slimnoc.TrafficSpec{Pattern: pattern}
	return b
}

// scaleNets searches each 10k-endpoint topology's saturation load — where
// its throughput collapses — SN against its Table 4 baseline siblings,
// under a declared per-point memory budget.
func scaleNets(o Options) Figure {
	nets := []string{"sn_subgr_10000", "cm10k", "t2d10k", "fbf10k"}
	patterns := []string{"rnd", "adv1"}
	if o.Quick {
		patterns = []string{"rnd"}
	}
	var sats []slimnoc.SaturationSpec
	for _, net := range nets {
		for _, pat := range patterns {
			sats = append(sats, satSearch(o, fmt.Sprintf("scale-nets/%s/%s", net, pat), searchBase(o, net, pat)))
		}
	}
	return Figure{
		Title: "Saturation collapse at N=10080, SN vs Table 4 baselines", Section: "§5.5 scale-out",
		Sats:      sats,
		MemBudget: scaleBudget,
		Notes: "Each search brackets the load where the topology's throughput collapses. " +
			"The cm100k/t2d100k/fbf100k presets and sn_subgr_99856 extend the family to ~100k endpoints " +
			"but are deliberately absent: every route table, SN and grid alike, is one next-hop byte per router pair " +
			"(12482^2 ~ 149 MiB for the SN, 12544^2 ~ 150 MiB for a grid, inside even the smoke budget), " +
			"but one saturated probe on 12k routers is hours of engine work; " +
			"run them explicitly with patience (and a raised -mem-budget if a point outgrows the budget).",
	}
}

// scaleSmoke is the CI-sized single point proving a 10k-endpoint SN builds
// and runs inside the budget, reported with the event calendar's skip
// telemetry: at this load the overwhelming majority of cycles are dead and
// are jumped over exactly, which is why the point fits in smoke-test time.
func scaleSmoke(o Options) Figure {
	return Figure{
		Title: "10k-endpoint smoke point under memory budget", Section: "CI",
		Sweeps: []slimnoc.SweepSpec{{
			Name: "scale-smoke",
			Base: searchBase(o, "sn_subgr_10000", "rnd"),
			Axes: slimnoc.SweepAxes{
				Presets: []string{"sn_subgr_10000"},
				Loads:   []float64{0.008},
			},
		}},
		MemBudget: scaleBudget,
		Notes:     "One low-load point on the q=25 subgroup SN (1250 routers, 10000 endpoints): the idle-heavy regime the event calendar accelerates, run inside a 256 MiB budget the SN's table never strains.",
		Derive: func(r FigureRun) ([]*stats.Table, error) {
			res, err := r.results(0)
			if err != nil {
				return nil, err
			}
			t := &stats.Table{
				ID:    "scale-smoke",
				Title: "Scale smoke: 10k-endpoint SN under a 256 MiB engine budget (§5.5 scale-out)",
				Header: []string{"network", "nodes", "load", "latency_cycles",
					"throughput", "cycles", "cycles_skipped", "skip_%"},
			}
			for _, p := range res {
				m := p.Metrics
				skip := 0.0
				if m.Cycles > 0 {
					skip = 100 * float64(p.Engine.CyclesSkipped) / float64(m.Cycles)
				}
				t.AddRowF(p.Spec.Network.Preset, p.Network.Nodes, p.Spec.Traffic.Rate, m.AvgLatencyCycles,
					m.Throughput, m.Cycles, p.Engine.CyclesSkipped, skip)
			}
			return []*stats.Table{t}, nil
		},
	}
}

// satSearch builds one saturation search with the mode's grid resolution:
// quick mode coarsens the step and lowers the ceiling so CI-sized runs stay
// around half a dozen probes, full mode matches the paper's load range.
func satSearch(o Options, name string, base slimnoc.RunSpec) slimnoc.SaturationSpec {
	s := slimnoc.SaturationSpec{
		Name:          name,
		Base:          base,
		MinLoad:       0.04,
		MaxLoad:       0.6,
		Step:          0.02,
		LatencyFactor: 3,
	}
	if o.Quick {
		s.MaxLoad, s.Step = 0.44, 0.04
	}
	return s
}

// The sat-* family: saturation load per network, per buffering scheme, and
// per temporal process, for the Slim NoC against the Table 4 baselines.
// Searches have no fixed grid to sweep — snrepro runs them through
// Campaign.SaturationSearch — but their probes live in the same result
// store as every other point, so a sat figure warms the latency-vs-load
// figures (and vice versa) wherever loads coincide.

// satNets searches the saturation load of every small network.
func satNets(o Options) Figure {
	patterns := []string{"rnd", "adv1"}
	if o.Quick {
		patterns = []string{"rnd"}
	}
	var sats []slimnoc.SaturationSpec
	for _, net := range []string{"cm3", "t2d3", "fbf3", "pfbf3", "sn_subgr_200"} {
		for _, pat := range patterns {
			sats = append(sats, satSearch(o, fmt.Sprintf("sat-nets/%s/%s", net, pat), searchBase(o, net, pat)))
		}
	}
	return Figure{
		Title: "Saturation load per network, SN vs Table 4 baselines", Section: "§5.1 / Table 4",
		Sats:  sats,
		Notes: "Threshold: mean latency 3x the zero-load baseline (or the run's own saturation flag).",
	}
}

// satSchemes searches sn_subgr_200's saturation load per buffering scheme.
func satSchemes(o Options) Figure {
	var sats []slimnoc.SaturationSpec
	for _, scheme := range []string{"eb", "eb-large", "el", "cbr"} {
		b := searchBase(o, "sn_subgr_200", "rnd")
		b.Buffering = slimnoc.BufferingSpec{Scheme: scheme}
		sats = append(sats, satSearch(o, "sat-schemes/"+scheme, b))
	}
	return Figure{
		Title: "Saturation load per buffering scheme, sn_subgr_200", Section: "§4 / Fig. 11",
		Sats: sats,
	}
}

// satProcess searches sn_subgr_200's saturation load per temporal process.
func satProcess(o Options) Figure {
	var sats []slimnoc.SaturationSpec
	for _, proc := range []string{"bernoulli", "burst", "mmpp"} {
		b := searchBase(o, "sn_subgr_200", "rnd")
		b.Traffic.Process = proc
		sats = append(sats, satSearch(o, "sat-process/"+proc, b))
	}
	return Figure{
		Title: "Saturation load per temporal process, sn_subgr_200", Section: "workload decomposition",
		Sats:  sats,
		Notes: "Open-loop processes only: the request-reply closed loop self-throttles and has no load knob to search.",
	}
}
