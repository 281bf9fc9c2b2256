package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/stats"
	"repro/slimnoc"
	"repro/slimnoc/store"
)

// tableShape is a derived table's shape: everything but its numbers.
type tableShape struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Header []string `json:"header"`
	Labels []string `json:"labels"` // first column of every row
}

// shortFigures are the figures derived, and whose claims TestClaims
// judges, under -short: the analytic ones plus one cheap grid per kind of
// derivation (latency and area/power panels, per-benchmark rows,
// per-network studies, damaged networks).
var shortFigures = map[string]bool{
	"tab2": true, "tab3": true, "tab4": true, "fig3": true, "fig5": true,
	"fig6": true, "fig15": true, "sec55": true, "fig19": true, "fig10b": true,
	"sens-cycle": true, "resil": true,
}

// derivedRuns memoizes each figure's cold and warm derivations for the
// tests below, which share them.
var derivedRuns = map[string][2][]*stats.Table{}

// coldWarm derives a figure twice against one fresh result store: once
// cold (every point simulated) and once warm (every point served from the
// store, so Result.Raw is zero throughout).
func coldWarm(t *testing.T, id string) (cold, warm []*stats.Table) {
	t.Helper()
	if r, ok := derivedRuns[id]; ok {
		return r[0], r[1]
	}
	st, err := store.Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	o := manifestOptions()
	cold = derive(t, id, o, slimnoc.WithStore(st))
	warm = derive(t, id, o, slimnoc.WithStore(st))
	derivedRuns[id] = [2][]*stats.Table{cold, warm}
	return cold, warm
}

// derivedIDs lists the manifest figures with a Derive, skipping the
// expensive ones under -short.
func derivedIDs(t *testing.T) []string {
	var ids []string
	for _, f := range Manifest(manifestOptions()) {
		if f.Derive != nil && (!testing.Short() || shortFigures[f.ID]) {
			ids = append(ids, f.ID)
		}
	}
	return ids
}

// TestDeriveMatchesShapes pins every derived table's ID, title, header and
// row labels to the shapes the paper's tables were first rendered with
// (testdata/derived_shapes.json). The numbers are free to move.
func TestDeriveMatchesShapes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "derived_shapes.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]tableShape
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, f := range Manifest(manifestOptions()) {
		if f.Derive != nil {
			all = append(all, f.ID)
		}
	}
	var pinned []string
	for id := range want {
		pinned = append(pinned, id)
	}
	sort.Strings(all)
	sort.Strings(pinned)
	if !reflect.DeepEqual(all, pinned) {
		t.Fatalf("figures with a Derive %v, shapes pinned for %v", all, pinned)
	}
	for _, id := range derivedIDs(t) {
		t.Run(id, func(t *testing.T) {
			cold, _ := coldWarm(t, id)
			var got []tableShape
			for _, tb := range cold {
				s := tableShape{ID: tb.ID, Title: tb.Title, Header: tb.Header, Labels: []string{}}
				for _, row := range tb.Rows {
					s.Labels = append(s.Labels, row[0])
				}
				got = append(got, s)
			}
			if !reflect.DeepEqual(got, want[id]) {
				t.Errorf("shape drifted:\n got %+v\nwant %+v", got, want[id])
			}
		})
	}
}

// TestDeriveWarmEqualsCold pins that Derive reads nothing a result store
// drops: tables derived from store-served points equal the cold run's byte
// for byte.
func TestDeriveWarmEqualsCold(t *testing.T) {
	for _, id := range derivedIDs(t) {
		t.Run(id, func(t *testing.T) {
			cold, warm := coldWarm(t, id)
			if len(cold) != len(warm) {
				t.Fatalf("cold derived %d tables, warm %d", len(cold), len(warm))
			}
			for i := range cold {
				if c, w := cold[i].String(), warm[i].String(); c != w {
					t.Errorf("warm table differs from cold:\n%s\nvs\n%s", w, c)
				}
			}
		})
	}
}
