package slimnoc

import (
	"reflect"
	"testing"

	"repro/internal/routing"
)

// TestEstimatorCompactTable estimates and path-queries on the compact table
// NewEstimator holds for every SN engine (it has no Route views: deriving hops
// from them used to panic the serving goroutine after the first episode), and
// pins every answer equal to the same network on the interned table the
// generic Compile + CompilePorts builds.
func TestEstimatorCompactTable(t *testing.T) {
	e, err := NewEstimator(RunSpec{Network: NetworkSpec{Topology: "sn", Q: 27, Conc: 8, Layout: "subgr"}})
	if err != nil {
		t.Fatal(err)
	}
	if !e.table.Compact() {
		t.Fatal("estimator table of an SN engine is not compact")
	}
	dense, err := routing.Compile(e.net.Nr, &routing.MinimalRouting{P: routing.NewMinimal(e.net), VCs: e.table.NumVCs()})
	if err != nil {
		t.Fatal(err)
	}
	if err := dense.CompilePorts(e.net.Adj); err != nil {
		t.Fatal(err)
	}
	d := &Estimator{spec: e.spec, net: e.net, kind: e.kind, table: dense, cfg: e.cfg}
	d.cfg.Table = dense

	n := e.Nodes()
	batches := [][]Transfer{
		{{Src: 0, Dst: n - 1, Flits: 6}},
		{{Src: 5, Dst: 5, Flits: 2}},
		{{Src: 17, Dst: 9000, Flits: 4}, {Src: 18, Dst: 9000, Flits: 4}, {Src: 9000, Dst: 17, Flits: 9}, {Src: n / 2, Dst: 3, Flits: 1}},
	}
	for i, b := range batches {
		got, err := e.Estimate(b)
		if err != nil {
			t.Fatalf("batch %d on the compact table: %v", i, err)
		}
		want, err := d.Estimate(b)
		if err != nil {
			t.Fatalf("batch %d on the dense table: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: compact %+v, dense %+v", i, got, want)
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
				t.Fatalf("RouterPath(%d, %d): compact %v, dense %v", tr.Src, tr.Dst, gp, wp)
			}
		}
	}
}
