package exp

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/slimnoc"
	"repro/slimnoc/store"
)

var updateClaims = flag.Bool("update-claims", false, "rewrite testdata/claims_quick.json from this run's verdicts")

// claimsFile pins every declared claim's verdict at quick mode, seed 1.
var claimsFile = filepath.Join("testdata", "claims_quick.json")

// TestClaims judges the paper's claims at quick mode, seed 1, against the
// verdicts pinned in testdata/claims_quick.json: every declared claim, or
// under -short the claims of shortFigures. A failed table lookup is an
// error, never a verdict, and a claim without a pin fails. The figures
// share one result store, so points common to several figures simulate
// once. Regenerate the pins with -update-claims.
func TestClaims(t *testing.T) {
	if *updateClaims && testing.Short() {
		t.Fatal("-update-claims judges every claim: run it without -short")
	}
	pinned := map[string]string{}
	data, err := os.ReadFile(claimsFile)
	if err == nil {
		err = json.Unmarshal(data, &pinned)
	}
	if err != nil && !*updateClaims {
		t.Fatal(err)
	}
	st, err := store.Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	got := map[string]string{}
	for _, f := range Manifest(quick()) {
		if len(f.Claims) == 0 || (testing.Short() && !shortFigures[f.ID]) {
			continue
		}
		t.Run(f.ID, func(t *testing.T) {
			for _, v := range f.Judge(derive(t, f.ID, quick(), slimnoc.WithStore(st))) {
				t.Run(strings.TrimPrefix(v.Claim, f.ID+"/"), func(t *testing.T) {
					if v.Err != nil {
						t.Fatal(v.Err)
					}
					got[v.Claim] = v.Outcome
					if want := pinned[v.Claim]; !*updateClaims && v.Outcome != want {
						t.Errorf("%s (value %.4g), pinned %q: %s", v.Outcome, v.Value, want, v.Paper)
					}
				})
			}
		})
	}
	if *updateClaims {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(claimsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for id := range pinned {
		if _, ok := got[id]; !ok && !testing.Short() {
			t.Errorf("pinned claim %s was not judged", id)
		}
	}
}

// readerTables is a fixture with a repeating first column (tab5-like), a
// ragged row, a repeated header, saturated cells and a repeated table ID.
func readerTables() []*stats.Table {
	return []*stats.Table{
		{ID: "tab5", Header: []string{"tech", "vs", "gain"}, Rows: [][]string{
			{"45nm", "t2d4", "14.37"}, {"45nm", "cm4", "33.89"}, {"22nm", "t2d4", "16.58"}, {"32nm"},
		}},
		{ID: "lat", Header: []string{"load", "sn", "fbf", "cm", "cm"}, Rows: [][]string{
			{"0.008", "13.7", "13.3", "24.4", "24.4"}, {"0.240", "sat", "16.2", "sat", "sat"},
		}},
		{ID: "dup"}, {ID: "dup"},
	}
}

// TestReaderErrors pins that every failed lookup is an error naming what
// was looked up, never a zero that a claim could compare, and that the
// first failure sticks.
func TestReaderErrors(t *testing.T) {
	for _, c := range []struct{ table, row, col, want string }{
		{"tab9", "45nm/t2d4", "gain", `unknown table "tab9"`},
		{"dup", "a", "x", `table "dup" matches more than once`},
		{"tab5", "32nm/t2d4", "gain", `unknown row "32nm/t2d4" in table tab5`},
		{"tab5", "45nm", "gain", `row "45nm" matches more than once in table tab5`},
		{"tab5", "45nm/cm4", "SN_gain_%", `unknown column "SN_gain_%" in table tab5`},
		{"lat", "0.008", "cm", `column "cm" matches more than once in table lat`},
		{"tab5", "32nm", "gain", `row "32nm" has no "gain" cell in table tab5`},
		{"tab5", "45nm/cm4", "vs", `"cm4" is not a number`},
	} {
		r := &Reader{Tables: readerTables()}
		first := r.num(c.table, c.row, c.col)
		later := r.num("lat", "0.008", "sn")
		if first != 0 || later != 0 || r.Err == nil || !strings.Contains(r.Err.Error(), c.want) {
			t.Errorf("%s: read %v then %v, error %v; want zeros and %s", c.want, first, later, r.Err, c.want)
		}
	}
}

// TestJudge pins the three outcomes: a claim read through compound row
// labels holds, a saturated cell (+Inf) loses a lower-is-better claim,
// and a claim whose lookup fails is an error, not a failed claim.
func TestJudge(t *testing.T) {
	f := Figure{ID: "fig", Claims: []Claim{
		lowerInCol("ok", "", "tab5", "gain", "45nm/t2d4", "22nm/t2d4"),
		lowerInRow("sat", "", "lat", "0.240", "sn", "fbf"),
		lowerInRow("typo", "", "lat", "0.08", "sn", "fbf"),
	}}
	vs := f.Judge(readerTables())
	if vs[0].Claim != "fig/ok" || vs[0].Outcome != "holds" || math.Abs(vs[0].Value-14.37/16.58) > 1e-12 {
		t.Errorf("ok claim: %+v", vs[0])
	}
	if vs[1].Outcome != "fails" || !math.IsInf(vs[1].Value, 1) {
		t.Errorf("saturated claim: %+v", vs[1])
	}
	if vs[2].Outcome != "error" || !math.IsNaN(vs[2].Value) || !strings.Contains(vs[2].Err.Error(), `unknown row "0.08"`) {
		t.Errorf("typo claim: %+v", vs[2])
	}
}
