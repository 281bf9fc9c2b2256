package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("GeoMean(1,100) = %v, want 10", got)
	}
	if GeoMean([]float64{1, -1}) != 0 {
		t.Error("non-positive input should return 0")
	}
	if GeoMean(nil) != 0 {
		t.Error("empty input should return 0")
	}
}

// TestGeoMeanQuick: geometric mean lies between min and max.
func TestGeoMeanQuick(t *testing.T) {
	prop := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g := GeoMean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "fig99", Title: "demo", Header: []string{"a", "bbbb"}}
	tb.AddRow("x", "y")
	tb.AddRowF("long-cell", 3.14159)
	s := tb.String()
	if !strings.Contains(s, "fig99") || !strings.Contains(s, "long-cell") {
		t.Errorf("render missing content:\n%s", s)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bbbb\n") {
		t.Errorf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "3.142") {
		t.Errorf("csv missing formatted float: %q", csv)
	}
}

func TestAddRowFTypes(t *testing.T) {
	tb := &Table{Header: []string{"v"}}
	tb.AddRowF(42)
	tb.AddRowF(int64(43))
	tb.AddRowF(true)
	tb.AddRowF(1.5)
	if tb.Rows[0][0] != "42" || tb.Rows[1][0] != "43" || tb.Rows[2][0] != "true" || tb.Rows[3][0] != "1.5" {
		t.Errorf("rows = %v", tb.Rows)
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{
		ID:     "fig-x",
		Title:  "Example",
		Header: []string{"a", "b"},
	}
	tab.AddRow("1", "with|pipe")
	tab.AddRow("2")           // short row pads to the table width
	tab.AddRow("3", "x", "y") // wide row extends it — nothing is dropped
	got := tab.Markdown()
	want := "**fig-x** — Example\n\n" +
		"| a | b |  |\n" +
		"|---|---|---|\n" +
		"| 1 | with\\|pipe |  |\n" +
		"| 2 |  |  |\n" +
		"| 3 | x | y |\n"
	if got != want {
		t.Errorf("Markdown =\n%q\nwant\n%q", got, want)
	}
}
