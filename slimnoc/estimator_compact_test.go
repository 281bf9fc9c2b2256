package slimnoc

import (
	"reflect"
	"testing"

	"repro/internal/routing"
)

// TestEstimatorCompactTable estimates and path-queries on the table
// NewEstimator holds for an SN engine (deriving hops from route views that a
// next-hop table does not have used to panic the serving goroutine after the
// first episode). Every estimate and router path must equal those of an
// estimator over a table compiled separately through routing.NewTable: the
// facade's compile path and the routing package's agree.
func TestEstimatorCompactTable(t *testing.T) {
	e, err := NewEstimator(RunSpec{Network: NetworkSpec{Topology: "sn", Q: 27, Conc: 8, Layout: "subgr"}})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := routing.NewTable(e.net, e.kind, e.table.NumVCs())
	if err != nil {
		t.Fatal(err)
	}
	d := &Estimator{spec: e.spec, net: e.net, kind: e.kind, table: tab, cfg: e.cfg}
	d.cfg.Table = tab

	n := e.Nodes()
	batches := [][]Transfer{
		{{Src: 0, Dst: n - 1, Flits: 6}},
		{{Src: 5, Dst: 5, Flits: 2}},
		{{Src: 17, Dst: 9000, Flits: 4}, {Src: 18, Dst: 9000, Flits: 4}, {Src: 9000, Dst: 17, Flits: 9}, {Src: n / 2, Dst: 3, Flits: 1}},
	}
	for i, b := range batches {
		got, err := e.Estimate(b)
		if err != nil {
			t.Fatalf("batch %d on the shared table: %v", i, err)
		}
		want, err := d.Estimate(b)
		if err != nil {
			t.Fatalf("batch %d on the separate table: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: shared table %+v, separate table %+v", i, got, want)
		}
		for _, tr := range b {
			gp, err := e.RouterPath(tr.Src, tr.Dst)
			if err != nil {
				t.Fatal(err)
			}
			wp, err := d.RouterPath(tr.Src, tr.Dst)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gp, wp) {
				t.Fatalf("RouterPath(%d, %d): shared table %v, separate table %v", tr.Src, tr.Dst, gp, wp)
			}
		}
	}
}
