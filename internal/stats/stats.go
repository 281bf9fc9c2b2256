// Package stats provides the small utilities the experiment harness shares:
// geometric means and printable result tables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// GeoMean returns the geometric mean of positive values (0 if any value is
// non-positive or the input is empty). The paper uses geometric means for
// its cross-benchmark summaries (§5.4, §6).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Table is a printable experiment result: a title, a header row, and data
// rows — one per line the paper's table or figure series reports.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowF appends a row, formatting each value: strings pass through,
// float64 as %.4g, ints as %d.
func (t *Table) AddRowF(vals ...interface{}) {
	cells := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case string:
			cells[i] = x
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		case int:
			cells[i] = fmt.Sprintf("%d", x)
		case int64:
			cells[i] = fmt.Sprintf("%d", x)
		case bool:
			cells[i] = fmt.Sprintf("%v", x)
		default:
			cells[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widthAt(widths, i, len(c)), c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func widthAt(widths []int, i, fallback int) int {
	if i < len(widths) {
		return widths[i]
	}
	return fallback
}

// Markdown renders the table as a GitHub-flavoured Markdown pipe table
// with a bold title line, for the per-figure reports snrepro writes under
// docs/results/. Cells containing pipes are escaped, and ragged rows —
// shorter or longer than the header — are padded out to the widest row so
// every cell renders (no silent truncation, matching CSV).
func (t *Table) Markdown() string {
	ncols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > ncols {
			ncols = len(row)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "**%s** — %s\n\n", t.ID, t.Title)
	esc := func(c string) string { return strings.ReplaceAll(c, "|", "\\|") }
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i := 0; i < ncols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			b.WriteString(" " + esc(c) + " |")
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	b.WriteString("|")
	for i := 0; i < ncols; i++ {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
