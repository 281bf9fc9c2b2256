// Per-figure reproduction reports: the rendering layer between manifest
// campaigns and the Markdown/CSV files cmd/snrepro writes under
// docs/results/. Reports are a pure function of the point results, so a
// resumed or fully cached rerun emits byte-identical files.

package exp

import (
	"context"
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/stats"
	"repro/slimnoc"
)

// FigureRun is the outcome of reproducing one manifest figure: the point
// results of each of its sweeps (parallel to Figure.Sweeps) and the results
// of each of its saturation searches (parallel to Figure.Sats).
type FigureRun struct {
	Figure  Figure
	Results [][]slimnoc.PointResult
	Sats    []slimnoc.SaturationResult
}

// RunFigure executes every sweep and saturation search of a manifest figure
// through one campaign (shared network/route-table caches; shared result
// store across everything when the caller attaches one via
// slimnoc.WithStore, so search probes and sweep points deduplicate). The
// first campaign-level error — in practice only context cancellation —
// aborts and returns the partial FigureRun.
func RunFigure(ctx context.Context, f Figure, o Options, copts ...slimnoc.CampaignOption) (FigureRun, error) {
	run := FigureRun{Figure: f}
	// The figure's declared budget applies unless the caller overrides it:
	// a positive Options.MemBudget replaces it, a negative one disables it.
	budget := f.MemBudget
	if o.MemBudget != 0 {
		budget = o.MemBudget
	}
	base := []slimnoc.CampaignOption{slimnoc.WithJobs(o.Jobs)}
	if budget > 0 {
		base = append(base, slimnoc.WithPointMemBudget(budget))
	}
	campaign := slimnoc.NewCampaign(append(base, copts...)...)
	for _, sweep := range f.Sweeps {
		points, err := sweep.Points()
		if err != nil {
			return run, err
		}
		results, err := campaign.Run(ctx, points)
		run.Results = append(run.Results, results)
		if err != nil {
			return run, err
		}
	}
	for _, sat := range f.Sats {
		res, err := campaign.SaturationSearch(ctx, sat)
		run.Sats = append(run.Sats, res)
		if err != nil {
			return run, err
		}
	}
	return run, nil
}

// CachedCount returns how many executed points — sweep points and
// saturation-search probes alike — were served from the result store versus
// simulated fresh.
func (r FigureRun) CachedCount() (cached, fresh int) {
	count := func(p slimnoc.PointResult) {
		if p.Err != nil {
			return
		}
		if p.Cached {
			cached++
		} else {
			fresh++
		}
	}
	for _, sweep := range r.Results {
		for _, p := range sweep {
			count(p)
		}
	}
	for _, sat := range r.Sats {
		for _, p := range sat.Probes {
			count(p)
		}
	}
	return cached, fresh
}

// reportHeader is the per-point column set of figure reports. The process
// column spells out the temporal process (bernoulli when defaulted) so
// mixed-workload grids stay distinguishable in the rendered files.
var reportHeader = []string{
	"point", "network", "pattern", "process", "trace", "scheme", "vcs", "load", "seed",
	"latency_cycles", "latency_ns", "p99_cycles", "throughput", "avg_hops",
	"saturated", "error",
}

// tables renders one stats.Table per sweep, a row per point in submission
// order.
func (r FigureRun) tables() []*stats.Table {
	var out []*stats.Table
	for si, sweep := range r.Figure.Sweeps {
		t := &stats.Table{
			ID:     sweep.Name,
			Title:  fmt.Sprintf("%s (%s), sweep %d/%d", r.Figure.Title, r.Figure.Section, si+1, len(r.Figure.Sweeps)),
			Header: reportHeader,
		}
		if si >= len(r.Results) {
			out = append(out, t)
			continue
		}
		for _, p := range r.Results[si] {
			t.AddRow(pointRow(p)...)
		}
		out = append(out, t)
	}
	return out
}

// pointRow flattens one point result into report cells.
func pointRow(p slimnoc.PointResult) []string {
	spec := p.Spec
	netName := spec.Network.Preset
	if netName == "" {
		netName = spec.Network.Topology
	}
	row := []string{
		spec.Name, netName, spec.Traffic.Pattern, slimnoc.DisplayProcess(spec.Traffic), spec.Traffic.Trace,
		spec.Buffering.Scheme, strconv.Itoa(spec.Routing.VCs),
		strconv.FormatFloat(spec.Traffic.Rate, 'g', -1, 64),
		strconv.FormatInt(spec.Sim.Seed, 10),
	}
	if p.Result != nil {
		m := p.Result.Metrics
		row[1] = p.Result.Network.Name
		row = append(row,
			fmt.Sprintf("%.4g", m.AvgLatencyCycles),
			fmt.Sprintf("%.4g", m.AvgLatencyNs),
			fmt.Sprintf("%.4g", m.P99LatencyCycles),
			fmt.Sprintf("%.4g", m.Throughput),
			fmt.Sprintf("%.4g", m.AvgHops),
			strconv.FormatBool(m.Saturated),
		)
	} else {
		row = append(row, "", "", "", "", "", "")
	}
	return append(row, p.ErrorText())
}

// satHeader is the per-search column set of saturation reports.
var satHeader = []string{
	"search", "network", "pattern", "process", "scheme",
	"saturation_load", "threshold_cycles", "base_latency", "probes", "bracket",
}

// satTable renders the figure's saturation searches as one summary table
// (nil when the figure has none). Rows are deterministic for a fixed spec —
// the search sequence never depends on store state — so warm and cold
// reports stay byte-identical.
func (r FigureRun) satTable() *stats.Table {
	if len(r.Figure.Sats) == 0 {
		return nil
	}
	t := &stats.Table{
		ID:     r.Figure.ID + "/saturation",
		Title:  fmt.Sprintf("%s (%s), saturation searches", r.Figure.Title, r.Figure.Section),
		Header: satHeader,
	}
	for si, spec := range r.Figure.Sats {
		norm := spec.Normalized()
		row := []string{
			spec.Name, norm.Base.Network.Preset, norm.Base.Traffic.Pattern,
			slimnoc.DisplayProcess(norm.Base.Traffic), norm.Base.Buffering.Scheme,
		}
		if si < len(r.Sats) {
			res := r.Sats[si]
			bracket := "crossed"
			switch {
			case res.AtMin:
				bracket = "at_min"
			case res.AtMax:
				bracket = "at_max"
			}
			row = append(row,
				fmt.Sprintf("%.3f", res.SaturationLoad),
				fmt.Sprintf("%.4g", res.Threshold),
				fmt.Sprintf("%.4g", res.BaseLatency),
				strconv.Itoa(len(res.Probes)),
				bracket,
			)
		} else {
			row = append(row, "", "", "", "", "")
		}
		t.AddRow(row...)
	}
	return t
}

// Markdown renders the figure's full report: title, section, notes, one
// pipe table per sweep, and the saturation summary when the figure carries
// searches.
func (r FigureRun) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n\n", r.Figure.ID, r.Figure.Title)
	fmt.Fprintf(&b, "Paper reference: %s.\n\n", r.Figure.Section)
	if !r.Figure.Simulates() {
		b.WriteString("This artifact is computed entirely from the analytical models; it has no simulation grid.\n")
	}
	if r.Figure.Notes != "" {
		fmt.Fprintf(&b, "> %s\n\n", r.Figure.Notes)
	}
	for _, t := range r.tables() {
		b.WriteString(t.Markdown())
		b.WriteByte('\n')
	}
	if t := r.satTable(); t != nil {
		b.WriteString(t.Markdown())
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders every sweep's points — and every saturation search's probes —
// as one CSV document with a leading sweep/search column. Cells are
// RFC-4180 quoted, so free-text columns (error messages) never break row
// alignment.
func (r FigureRun) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(append([]string{"sweep"}, reportHeader...))
	for si, sweep := range r.Results {
		name := ""
		if si < len(r.Figure.Sweeps) {
			name = r.Figure.Sweeps[si].Name
		}
		for _, p := range sweep {
			w.Write(append([]string{name}, pointRow(p)...))
		}
	}
	for si, sat := range r.Sats {
		name := ""
		if si < len(r.Figure.Sats) {
			name = r.Figure.Sats[si].Name
		}
		for _, p := range sat.Probes {
			w.Write(append([]string{name}, pointRow(p)...))
		}
	}
	w.Flush()
	return b.String()
}
