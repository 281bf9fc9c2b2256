package exp

import (
	"testing"

	"repro/slimnoc"
)

// TestPointRowErrorCell: a point the engine suspects of deadlock names it
// in the error cell beside saturated=true, a healthy or saturated point
// leaves the cell empty, and a failed point keeps its error.
func TestPointRowErrorCell(t *testing.T) {
	point := func(m slimnoc.Metrics) slimnoc.PointResult {
		return slimnoc.PointResult{Spec: slimnoc.RunSpec{Name: "p"}, Result: &slimnoc.Result{Metrics: m}}
	}
	for _, c := range []struct {
		p               slimnoc.PointResult
		saturated, cell string
	}{
		{point(slimnoc.Metrics{AvgLatencyCycles: 28.5, Delivered: 50, Generated: 50}), "false", ""},
		{point(slimnoc.Metrics{AvgLatencyCycles: 400, Saturated: true}), "true", ""},
		{point(slimnoc.Metrics{Delivered: 12, Generated: 50, Saturated: true, DeadlockSuspected: true}),
			"true", "deadlock suspected: 12 of 50 delivered"},
		{slimnoc.PointResult{Spec: slimnoc.RunSpec{Name: "p"}, Error: "boom"}, "", "boom"},
	} {
		row := pointRow(c.p)
		if len(row) != len(reportHeader) {
			t.Fatalf("row has %d cells, header %d", len(row), len(reportHeader))
		}
		if got := row[len(row)-2]; got != c.saturated {
			t.Errorf("saturated cell = %q, want %q", got, c.saturated)
		}
		if got := row[len(row)-1]; got != c.cell {
			t.Errorf("error cell = %q, want %q", got, c.cell)
		}
	}
}
