package routing

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// TestCompactMatchesDense pins that the compile paths agree byte for byte on
// an SN instance and an FBF grid (generic minimal routes over a different
// structure): NewTable, Compile of the builder NewRoutingFor picks, and the
// sweep (CompileCompact) itself, at VC counts below, at and above the
// diameter.
func TestCompactMatchesDense(t *testing.T) {
	for name, net := range map[string]*topo.Network{
		"sn":  snNet(t, 5, 4, core.LayoutSubgroup),
		"fbf": topo.FBF(4, 4, 1),
	} {
		t.Run(name, func(t *testing.T) {
			for _, vcs := range []int{1, 2, 4} {
				sweep, err := CompileCompact(net, vcs)
				if err != nil {
					t.Fatal(err)
				}
				tab, err := NewTable(net, Kind{Class: ClassGeneric}, vcs)
				if err != nil {
					t.Fatal(err)
				}
				pb, err := NewRoutingFor(net, Kind{Class: ClassGeneric}, vcs)
				if err != nil {
					t.Fatal(err)
				}
				compiled, err := Compile(net.Nr, pb)
				if err != nil {
					t.Fatal(err)
				}
				for _, other := range []*RouteTable{tab, compiled} {
					if !slices.Equal(other.cnh, sweep.cnh) || other.NumVCs() != vcs || other.kind != sweep.kind {
						t.Fatalf("vcs=%d: the compile paths give different tables", vcs)
					}
				}
			}
		})
	}
}

// TestCompactPathHelpers pins the AppendPath walk on a compact table
// against the scalar construction: from each router, the first neighbour in
// adjacency order that one BFS from the destination puts a hop closer.
func TestCompactPathHelpers(t *testing.T) {
	net := snNet(t, 5, 4, core.LayoutSubgroup)
	compact, err := CompileCompact(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]int32, net.Nr)
	for dst := 0; dst < net.Nr; dst++ {
		net.BFS(dst, dist, nil)
		for src := 0; src < net.Nr; src++ {
			want := []int{src}
			for cur := src; cur != dst; want = append(want, cur) {
				cur = net.Adj[cur][slices.IndexFunc(net.Adj[cur], func(v int) bool { return dist[v] == dist[cur]-1 })]
			}
			if got := compact.AppendPath(nil, src, dst); !slices.Equal(got, want) {
				t.Fatalf("%d->%d: AppendPath = %v, want %v", src, dst, got, want)
			}
		}
	}
}

// TestCompactMemBytes pins the compact footprint at one byte per pair (plus
// nothing else that scales with nr^2) — the size that brings the paper's
// 100k-endpoint tables under a 256 MiB budget.
func TestCompactMemBytes(t *testing.T) {
	net := snNet(t, 5, 4, core.LayoutSubgroup)
	compact, err := CompileCompact(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairs := int64(net.Nr) * int64(net.Nr)
	if got := compact.MemBytes(); got != pairs {
		t.Fatalf("compact MemBytes = %d, want %d (one byte per pair)", got, pairs)
	}
	// The acceptance arithmetic for the 100k-endpoint preset (q=79 SN:
	// 2*79^2 = 12482 routers).
	const nr100k = 12482
	if size := int64(nr100k) * int64(nr100k); size >= 256<<20 {
		t.Fatalf("compact size %d not under 256 MiB", size)
	}
}

// TestNextHopsMatchScalarBFS anchors the sweep to a construction that
// shares no code with it — the scalar loop it replaced, one
// topo.Network.BFS per destination and the first adjacency position one hop
// closer: every byte of the compact table, on the structures the compact
// form serves, a long-path torus, and an SN in pieces (which the compile
// must refuse).
func TestNextHopsMatchScalarBFS(t *testing.T) {
	df, err := topo.Dragonfly(5, 2, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	sn := snNet(t, 9, 4, core.LayoutSubgroup)
	damaged := sn.RemoveRandomLinks(0.9, 3)
	if damaged.Diameter() != -1 {
		t.Fatal("fixture: 90% link removal left the SN connected")
	}
	for _, net := range []*topo.Network{
		sn, damaged, snNet(t, 5, 4, core.LayoutRand), df,
		topo.FoldedClos(25, 7, 8), topo.FBF(4, 4, 1), topo.Torus2D(8, 9, 1),
	} {
		t.Run(net.Name, func(t *testing.T) { checkNextHopsMatchBFS(t, net) })
	}
}

// checkNextHopsMatchBFS holds CompileCompact's bytes for net against one
// scalar BFS per destination; a disconnected net must fail the compile.
func checkNextHopsMatchBFS(t *testing.T, net *topo.Network) {
	t.Helper()
	nr := net.Nr
	compact, cerr := CompileCompact(net, 2)
	dist, queue := make([]int32, nr), make([]int32, 0, nr)
	for dst := 0; dst < nr; dst++ {
		connected := len(net.BFS(dst, dist, queue)) == nr
		if connected != (cerr == nil) {
			t.Fatalf("BFS from %d reaches everyone: %v, but CompileCompact said %v", dst, connected, cerr)
		}
		if cerr != nil {
			continue
		}
		for r := 0; r < nr; r++ {
			port := slices.IndexFunc(net.Adj[r], func(v int) bool { return dist[r] > 0 && dist[v] == dist[r]-1 })
			if port < 0 {
				port = cnhNone
			}
			if int(compact.cnh[r*nr+dst]) != port {
				t.Fatalf("%d->%d: compact table byte %d, BFS says port %d", r, dst, compact.cnh[r*nr+dst], port)
			}
		}
	}
}

// TestDenseFromSweepMatchesCompile runs the scalar-BFS oracle on every SN
// size class and layout the figures use, a Dragonfly and a folded Clos. (The
// name dates from when the sweep's bytes were expanded into a dense table;
// the scalar BFS is now the only reference.)
func TestDenseFromSweepMatchesCompile(t *testing.T) {
	type namedNet struct {
		name string
		net  *topo.Network
	}
	var nets []namedNet
	for _, q := range []int{3, 5, 8, 9, 16} {
		for _, l := range core.Layouts() {
			if q == 16 && l != core.LayoutSubgroup && testing.Short() {
				continue // layouts move coordinates, not links; one 512-router case is enough for -short
			}
			nets = append(nets, namedNet{fmt.Sprintf("sn_q%d_%s", q, l), snNet(t, q, 4, l)})
		}
	}
	df, err := topo.Dragonfly(5, 2, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, namedNet{"dragonfly", df}, namedNet{"clos", topo.FoldedClos(25, 7, 8)})
	for _, c := range nets {
		t.Run(c.name, func(t *testing.T) { checkNextHopsMatchBFS(t, c.net) })
	}
}

// TestCompileDisconnected: a network in two components has no route table.
// Both entry points must say so with an error naming the first unreachable
// pair.
func TestCompileDisconnected(t *testing.T) {
	two := &topo.Network{Name: "two-islands", Nr: 4, P: 1,
		Adj: [][]int{{1}, {0}, {3}, {2}}}
	sn := snNet(t, 5, 4, core.LayoutSubgroup)
	damaged := sn.RemoveRandomLinks(0.85, 3)
	if damaged.Diameter() != -1 {
		t.Fatal("fixture: 85% link removal left the SN connected")
	}
	dist := make([]int32, damaged.Nr)
	damaged.BFS(0, dist, nil)
	first := slices.Index(dist, -1) // lowest router that router 0 cannot reach
	for _, c := range []struct {
		net  *topo.Network
		pair string
	}{{two, "0->2"}, {damaged, fmt.Sprintf("0->%d", first)}} {
		_, gerr := NewTable(c.net, Kind{Class: ClassGeneric}, 2)
		_, serr := CompileCompact(c.net, 2)
		for which, err := range map[string]error{"NewTable": gerr, "CompileCompact": serr} {
			if err == nil {
				t.Fatalf("%s: %s accepted a disconnected network", c.net.Name, which)
			}
			if !strings.Contains(err.Error(), c.pair) {
				t.Errorf("%s: %s error %q does not name the first unreachable pair %s", c.net.Name, which, err, c.pair)
			}
		}
	}
}

// TestCompileCompactAllocs pins the compile's memory shape on the 512-router
// SN: the table (one byte per pair) plus the sweep's three nr-word arrays and
// a handful of fixed-size objects — nothing per destination, per batch or per
// level.
func TestCompileCompactAllocs(t *testing.T) {
	net := snNet(t, 16, 4, core.LayoutSubgroup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab, err := CompileCompact(net, 2)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	nr := uint64(net.Nr)
	if got, want := after.TotalAlloc-before.TotalAlloc, nr*nr+3*8*nr; got < want || got > want+4096 {
		t.Errorf("CompileCompact allocated %d B, want the table and three word arrays (%d B) plus at most 4 KiB", got, want)
	}
	if got := after.Mallocs - before.Mallocs; got > 8 {
		t.Errorf("CompileCompact made %d allocations, want at most 8 at any size", got)
	}
	runtime.KeepAlive(tab)
}

// TestCompactSelfAndBounds pins the degenerate pairs: src == dst walks the
// single-router path with an immediate eject word.
func TestCompactSelfAndBounds(t *testing.T) {
	net := topo.FBF(3, 3, 1)
	compact, err := CompileCompact(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if path := compact.AppendPath(nil, 4, 4); !slices.Equal(path, []int{4}) {
		t.Fatalf("self route: path %v", path)
	}
	if next := walkWords(compact, nil, 4, 4, 0, 0); len(next) != 1 || next[0] != NextEject {
		t.Fatalf("self route next = %v, want [NextEject]", next)
	}
	if NextEject != math.MaxUint32 {
		t.Fatalf("NextEject = %#x", uint32(NextEject))
	}
}
