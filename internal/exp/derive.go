// Shared helpers of the figures' Derive functions: point access, cell
// formatting, and network rebuilds for the analytical models.

package exp

import (
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/internal/topo"
	"repro/slimnoc"
)

// results returns sweep si's point results in submission order, failing on
// an incomplete sweep or the first point without a result.
func (r FigureRun) results(si int) ([]*slimnoc.Result, error) {
	if si >= len(r.Figure.Sweeps) || si >= len(r.Results) ||
		len(r.Results[si]) != r.Figure.Sweeps[si].NumPoints() {
		return nil, fmt.Errorf("exp: %s: sweep %d is incomplete", r.Figure.ID, si)
	}
	out := make([]*slimnoc.Result, len(r.Results[si]))
	for i, p := range r.Results[si] {
		if p.Err != nil {
			return nil, fmt.Errorf("exp: %s: point %s: %w", r.Figure.ID, p.Spec.Name, p.Err)
		}
		if p.Result == nil {
			return nil, fmt.Errorf("exp: %s: point %s has no result", r.Figure.ID, p.Spec.Name)
		}
		out[i] = p.Result
	}
	return out, nil
}

// network rebuilds a point's network for the analytical models.
func network(res *slimnoc.Result) (*topo.Network, error) {
	net, _, err := slimnoc.BuildNetwork(res.Spec.Network)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	return net, nil
}

// fmtLoad renders a load value compactly for row labels.
func fmtLoad(l float64) string { return fmt.Sprintf("%.3f", l) }

// fmtLat renders a latency, marking saturated points like the paper omits
// them.
func fmtLat(m slimnoc.Metrics) string {
	if m.Saturated {
		return "sat"
	}
	return fmt.Sprintf("%.1f", m.AvgLatencyCycles)
}

// latencyTables renders a latencyGrid sweep as the paper plots it: one
// table per pattern, a row per load, a column per network. A sweep of
// several patterns suffixes each table ID with its pattern; titleFmt takes
// the pattern as its one verb.
func latencyTables(r FigureRun, si int, id, titleFmt string) ([]*stats.Table, error) {
	res, err := r.results(si)
	if err != nil {
		return nil, err
	}
	ax := r.Figure.Sweeps[si].Axes
	var out []*stats.Table
	for pi, pat := range ax.Patterns {
		pat = strings.ToUpper(pat)
		t := &stats.Table{
			ID:     id,
			Title:  fmt.Sprintf(titleFmt, pat),
			Header: append([]string{"load"}, ax.Presets...),
		}
		if len(ax.Patterns) > 1 {
			t.ID += "-" + pat
		}
		for li, load := range ax.Loads {
			row := []string{fmtLoad(load)}
			for ni := range ax.Presets {
				row = append(row, fmtLat(res[(ni*len(ax.Patterns)+pi)*len(ax.Loads)+li].Metrics))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out, nil
}
