// The paper's claims as code. Each Figure states its paper's ordinal claims
// once, as Claims whose evaluators read the figure's derived tables by
// name: table ID, row label, column header. TestClaims pins every verdict
// at quick mode, cmd/snrepro prints them, and the root BenchmarkFigures
// reports their values.

package exp

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Claim is one ordinal statement the paper makes about a figure, checked
// against the figure's derived tables.
type Claim struct {
	// ID names the claim within its figure; Verdict.Claim qualifies it as
	// <figure>/<ID>.
	ID string
	// Paper is the paper's statement, with its figure or table and
	// section.
	Paper string
	// Eval reads the derived tables through r and returns the claim's
	// value (the ratio or margin it compares) and whether the statement
	// holds. A failed lookup is recorded in r, not returned.
	Eval func(r *Reader) (value float64, holds bool) `json:"-"`
}

// Verdict is one claim judged on one run's derived tables.
type Verdict struct {
	Claim   string // <figure>/<claim ID>
	Paper   string
	Value   float64
	Outcome string // holds, fails, or error when a table lookup failed
	Err     error  // the failed lookup
}

// Judge evaluates every claim of f on the figure's derived tables.
func (f Figure) Judge(tables []*stats.Table) []Verdict {
	out := make([]Verdict, len(f.Claims))
	for i, c := range f.Claims {
		r := &Reader{Tables: tables}
		v, holds := c.Eval(r)
		out[i] = Verdict{Claim: f.ID + "/" + c.ID, Paper: c.Paper, Value: v, Outcome: "fails", Err: r.Err}
		switch {
		case r.Err != nil:
			out[i].Value, out[i].Outcome = math.NaN(), "error"
		case holds:
			out[i].Outcome = "holds"
		}
	}
	return out
}

// VerdictTable renders verdicts as one table, a row per claim.
func VerdictTable(vs []Verdict) *stats.Table {
	t := &stats.Table{
		ID:     "claims",
		Title:  "The paper's claims judged on this run's derived tables",
		Header: []string{"claim", "verdict", "value", "paper"},
	}
	for _, v := range vs {
		value := fmt.Sprintf("%.4g", v.Value)
		if v.Err != nil {
			value = v.Err.Error()
		}
		t.AddRow(v.Claim, v.Outcome, value, v.Paper)
	}
	return t
}

// Reader looks up cells of a figure's derived tables by table ID, row
// label and column header, never by position. A row label is the row's
// first cell; "a/b" names the row whose first two cells are a and b, for
// tables whose first column repeats. The first failed lookup (an unknown
// or ambiguous table, row or column, or a non-numeric cell) is kept in
// Err, and every read after it returns a zero value, so an evaluator reads
// straight through and is judged only when all its lookups succeeded.
type Reader struct {
	Tables []*stats.Table
	Err    error
}

// fail records the first lookup error.
func (r *Reader) fail(format string, args ...any) {
	if r.Err == nil {
		r.Err = fmt.Errorf(format, args...)
	}
}

// cell returns the cell of table in the row labelled row and the column
// headed col.
func (r *Reader) cell(table, row, col string) string {
	t := r.table(table)
	if t == nil {
		return ""
	}
	parts := strings.Split(row, "/")
	keys := make([]string, len(t.Rows))
	for i, cells := range t.Rows {
		if len(cells) >= len(parts) {
			keys[i] = strings.Join(cells[:len(parts)], "/")
		}
	}
	in := " in table " + table
	ri := r.unique(keys, "row", row, in)
	ci := r.unique(t.Header, "column", col, in)
	if r.Err != nil {
		return ""
	}
	if ci >= len(t.Rows[ri]) {
		r.fail("row %q has no %q cell%s", row, col, in)
		return ""
	}
	return t.Rows[ri][ci]
}

// num returns cell parsed as a number. A saturated latency ("sat") reads as
// +Inf, so it loses every lower-is-better comparison.
func (r *Reader) num(table, row, col string) float64 {
	s := r.cell(table, row, col)
	if r.Err != nil {
		return 0
	}
	if s == "sat" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		r.fail("row %q, column %q in table %s: %q is not a number", row, col, table, s)
		return 0
	}
	return v
}

// labels returns the row labels (first cells) of table.
func (r *Reader) labels(table string) []string {
	t := r.table(table)
	if t == nil {
		return nil
	}
	out := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		out[i] = row[0]
	}
	return out
}

// table returns the derived table with the given ID, or nil once a lookup
// has failed.
func (r *Reader) table(id string) *stats.Table {
	ids := make([]string, len(r.Tables))
	for i, t := range r.Tables {
		ids[i] = t.ID
	}
	i := r.unique(ids, "table", id, "")
	if r.Err != nil {
		return nil
	}
	return r.Tables[i]
}

// unique returns the index of the one entry of names equal to want,
// recording an error naming it when there is none or more than one.
func (r *Reader) unique(names []string, what, want, in string) int {
	at := -1
	for i, n := range names {
		if n != want {
			continue
		}
		if at >= 0 {
			r.fail("%s %q matches more than once%s", what, want, in)
			return 0
		}
		at = i
	}
	if at < 0 {
		r.fail("unknown %s %q%s", what, want, in)
		return 0
	}
	return at
}

// lowerInRow declares the claim that in one row of a table, column x reads
// below every column of ys (lower is better; a saturated cell reads +Inf).
// Its value is x over the lowest of ys.
func lowerInRow(id, paper, table, row, x string, ys ...string) Claim {
	return lowest(id, paper, x, ys, func(r *Reader, col string) float64 { return r.num(table, row, col) })
}

// lowerInCol is lowerInRow down one column: row x reads below every row of
// ys.
func lowerInCol(id, paper, table, col, x string, ys ...string) Claim {
	return lowest(id, paper, x, ys, func(r *Reader, row string) float64 { return r.num(table, row, col) })
}

// lowest declares the claim that cell x reads below every cell of ys.
func lowest(id, paper, x string, ys []string, num func(*Reader, string) float64) Claim {
	return Claim{ID: id, Paper: paper, Eval: func(r *Reader) (float64, bool) {
		least := math.Inf(1)
		for _, y := range ys {
			least = math.Min(least, num(r, y))
		}
		v := num(r, x)
		return v / least, v < least
	}}
}

// atMostInRow declares the claim that in one row of a table, column x reads
// at or below column y. Its value is x/y.
func atMostInRow(id, paper, table, row, x, y string) Claim {
	return Claim{ID: id, Paper: paper, Eval: func(r *Reader) (float64, bool) {
		vx, vy := r.num(table, row, x), r.num(table, row, y)
		return vx / vy, vx <= vy
	}}
}
