package routing

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// compactNets returns the networks the compact form must reproduce exactly:
// an SN instance (the topology class the auto-selection targets) and an FBF
// grid (generic minimal routes over a different structure).
func compactNets(t *testing.T) map[string]*topo.Network {
	t.Helper()
	return map[string]*topo.Network{
		"sn":  snNet(t, 5, 4, core.LayoutSubgroup),
		"fbf": topo.FBF(4, 4, 1),
	}
}

// TestCompactMatchesDense verifies, for every (src,dst) pair, that the
// compact table's AppendRoute reconstruction is element-for-element identical
// to the dense table's Route/Ports/NextWords views of the same deterministic
// minimal routes — the equivalence the simulator's byte-identity under
// compact tables rests on.
func TestCompactMatchesDense(t *testing.T) {
	const vcs = 2
	for name, net := range compactNets(t) {
		net := net
		t.Run(name, func(t *testing.T) {
			dense, err := Compile(net.Nr, &MinimalRouting{P: NewMinimal(net), VCs: vcs})
			if err != nil {
				t.Fatal(err)
			}
			if err := dense.CompilePorts(net.Adj); err != nil {
				t.Fatal(err)
			}
			compact, err := CompileCompact(net, vcs)
			if err != nil {
				t.Fatal(err)
			}
			if !compact.Compact() || dense.Compact() {
				t.Fatalf("Compact() flags: compact=%v dense=%v", compact.Compact(), dense.Compact())
			}
			if compact.Nr() != net.Nr || compact.NumVCs() != vcs {
				t.Fatalf("compact table dims %d/%d, want %d/%d", compact.Nr(), compact.NumVCs(), net.Nr, vcs)
			}
			var path []int32
			var vcb, ports []uint8
			var next []uint32
			for src := 0; src < net.Nr; src++ {
				for dst := 0; dst < net.Nr; dst++ {
					wantPath, wantVCs := dense.Route(src, dst)
					wantPorts := dense.Ports(src, dst)
					wantNext := dense.NextWords(src, dst)
					path, vcb, ports, next = compact.AppendRoute(path[:0], vcb[:0], ports[:0], next[:0], src, dst)
					if len(path) != len(wantPath) {
						t.Fatalf("%d->%d: path len %d, want %d", src, dst, len(path), len(wantPath))
					}
					for i := range path {
						if path[i] != wantPath[i] {
							t.Fatalf("%d->%d: path[%d] = %d, want %d", src, dst, i, path[i], wantPath[i])
						}
					}
					if len(vcb) != len(wantVCs) || len(ports) != len(wantPorts) || len(next) != len(wantNext) {
						t.Fatalf("%d->%d: vcs/ports/next lens %d/%d/%d, want %d/%d/%d",
							src, dst, len(vcb), len(ports), len(next), len(wantVCs), len(wantPorts), len(wantNext))
					}
					for i := range vcb {
						if vcb[i] != wantVCs[i] {
							t.Fatalf("%d->%d: vc[%d] = %d, want %d", src, dst, i, vcb[i], wantVCs[i])
						}
						if ports[i] != wantPorts[i] {
							t.Fatalf("%d->%d: port[%d] = %d, want %d", src, dst, i, ports[i], wantPorts[i])
						}
					}
					for i := range next {
						if next[i] != wantNext[i] {
							t.Fatalf("%d->%d: next[%d] = %#x, want %#x", src, dst, i, next[i], wantNext[i])
						}
					}
				}
			}
		})
	}
}

// TestCompactPathHelpers pins the AppendPath/AppendPathTail walks and the
// mode accessors on a compact table against the dense equivalents.
func TestCompactPathHelpers(t *testing.T) {
	net := snNet(t, 5, 4, core.LayoutSubgroup)
	dense, err := Compile(net.Nr, &MinimalRouting{P: NewMinimal(net), VCs: 2})
	if err != nil {
		t.Fatal(err)
	}
	compact, err := CompileCompact(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !compact.HasPorts() {
		t.Fatal("compact table must report HasPorts (ports ride in AppendRoute)")
	}
	if got, want := compact.Pairs(), net.Nr*net.Nr; got != want {
		t.Fatalf("Pairs() = %d, want %d", got, want)
	}
	for src := 0; src < net.Nr; src++ {
		for dst := 0; dst < net.Nr; dst++ {
			want := dense.AppendPath(nil, src, dst)
			got := compact.AppendPath(nil, src, dst)
			wantTail := dense.AppendPathTail([]int{-7}, src, dst)
			gotTail := compact.AppendPathTail([]int{-7}, src, dst)
			if len(got) != len(want) || len(gotTail) != len(wantTail) {
				t.Fatalf("%d->%d: lens %d/%d, want %d/%d", src, dst, len(got), len(gotTail), len(want), len(wantTail))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%d->%d: AppendPath[%d] = %d, want %d", src, dst, i, got[i], want[i])
				}
			}
			for i := range gotTail {
				if gotTail[i] != wantTail[i] {
					t.Fatalf("%d->%d: AppendPathTail[%d] = %d, want %d", src, dst, i, gotTail[i], wantTail[i])
				}
			}
		}
	}
}

// TestCompactMemBytes pins the compact footprint at one byte per pair (plus
// nothing else that scales with nr^2) and checks the dense/compact ratio on
// a real SN instance — the compression that brings the paper's 100k-endpoint
// tables under a 256 MiB budget.
func TestCompactMemBytes(t *testing.T) {
	net := snNet(t, 5, 4, core.LayoutSubgroup)
	dense, err := Compile(net.Nr, &MinimalRouting{P: NewMinimal(net), VCs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := dense.CompilePorts(net.Adj); err != nil {
		t.Fatal(err)
	}
	compact, err := CompileCompact(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairs := int64(net.Nr) * int64(net.Nr)
	if got := compact.MemBytes(); got != pairs {
		t.Fatalf("compact MemBytes = %d, want %d (one byte per pair)", got, pairs)
	}
	if dense.MemBytes() < 12*pairs {
		t.Fatalf("dense MemBytes = %d, below its %d offset floor?", dense.MemBytes(), 12*pairs)
	}
	// The acceptance arithmetic for the 100k-endpoint preset (q=79 SN:
	// 2*79^2 = 12482 routers): dense floor over 1.5 GiB, compact under
	// 256 MiB.
	const nr100k = 12482
	denseFloor := int64(nr100k) * int64(nr100k) * 12
	compactSize := int64(nr100k) * int64(nr100k)
	if denseFloor <= 1<<30 {
		t.Fatalf("dense floor %d unexpectedly under 1 GiB", denseFloor)
	}
	if compactSize >= 256<<20 {
		t.Fatalf("compact size %d not under 256 MiB", compactSize)
	}
}

// TestEstimateDenseBytesExact pins the sweep's distance census against the
// real interned footprint: DenseBytes on the compact table must equal, to
// the byte, MemBytes of both the generic Compile+CompilePorts table and the
// table Dense then lays down. A long-path topology (an 8x9 torus, the shape
// of the 10k-endpoint scale baselines) rides along to cover the regime where
// path bytes dwarf the nr^2 x 12 offset floor — the case the compact
// auto-selection exists for.
func TestEstimateDenseBytesExact(t *testing.T) {
	nets := compactNets(t)
	nets["t2d"] = topo.Torus2D(8, 9, 1)
	for name, net := range nets {
		net := net
		t.Run(name, func(t *testing.T) {
			ref := referenceDense(t, net, 2)
			compact, err := CompileCompact(net, 2)
			if err != nil {
				t.Fatal(err)
			}
			got := compact.DenseBytes()
			if want := ref.MemBytes(); got != want {
				t.Fatalf("DenseBytes = %d, want exact dense MemBytes %d", got, want)
			}
			dense, err := compact.Dense()
			if err != nil {
				t.Fatal(err)
			}
			if built := dense.MemBytes(); built != got {
				t.Fatalf("Dense() built %d bytes, census predicted %d", built, got)
			}
			floor := int64(net.Nr) * int64(net.Nr) * 12
			if got <= floor {
				t.Fatalf("census %d not above the %d offset floor — it lost the path bytes", got, floor)
			}
		})
	}
}

// referenceDense builds the dense table the generic way — all-pairs Paths,
// one PathBuilder call per pair, a binary search per hop — which is the
// reference the single-sweep construction must equal.
func referenceDense(t testing.TB, net *topo.Network, vcs int) *RouteTable {
	t.Helper()
	ref, err := Compile(net.Nr, &MinimalRouting{P: NewMinimal(net), VCs: vcs})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.CompilePorts(net.Adj); err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestDenseFromSweepMatchesCompile is the byte-identity contract of the
// single-sweep construction: CompileCompact + Dense must produce the same
// seven arrays (offsets, VC offsets, lengths, routers, hop VCs, ports,
// next-hop words) as Compile(MinimalRouting) + CompilePorts, on every SN
// size class and layout, a Dragonfly and a folded Clos, at VC counts below,
// at and above the diameter.
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
		net := c.net
		t.Run(c.name, func(t *testing.T) {
			for _, vcs := range []int{1, 2, 4, 8} {
				ref := referenceDense(t, net, vcs)
				compact, err := CompileCompact(net, vcs)
				if err != nil {
					t.Fatal(err)
				}
				got, err := compact.Dense()
				if err != nil {
					t.Fatal(err)
				}
				if got.Compact() || got.pb != nil || got.nr != ref.nr || got.vcs != ref.vcs {
					t.Fatalf("vcs=%d: dense table header %+v", vcs, got)
				}
				for _, arr := range []struct {
					name      string
					got, want any
				}{
					{"off", got.off, ref.off}, {"voff", got.voff, ref.voff}, {"plen", got.plen, ref.plen},
					{"routers", got.routers, ref.routers}, {"hopVCs", got.hopVCs, ref.hopVCs},
					{"ports", got.ports, ref.ports}, {"nextw", got.nextw, ref.nextw},
				} {
					if !reflect.DeepEqual(arr.got, arr.want) {
						t.Fatalf("vcs=%d: %s differs from Compile+CompilePorts", vcs, arr.name)
					}
				}
			}
		})
	}
}

// TestCompileDisconnected: a network in two components has no route table.
// Both constructions must say so with an error naming the first unreachable
// pair — the generic path used to die in makeslice (AscendingVCs(-1)).
func TestCompileDisconnected(t *testing.T) {
	two := &topo.Network{Name: "two-islands", Nr: 4, P: 1,
		Adj: [][]int{{1}, {0}, {3}, {2}}}
	sn := snNet(t, 5, 4, core.LayoutSubgroup)
	damaged := sn.RemoveRandomLinks(0.85, 3)
	if damaged.Diameter() != -1 {
		t.Fatal("fixture: 85% link removal left the SN connected")
	}
	first := -1 // lowest router that router 0 cannot reach
	p := NewMinimal(damaged)
	for r := 0; r < damaged.Nr && first < 0; r++ {
		if p.Dist(0, r) < 0 {
			first = r
		}
	}
	for _, c := range []struct {
		net  *topo.Network
		pair string
	}{{two, "0->2"}, {damaged, fmt.Sprintf("0->%d", first)}} {
		_, gerr := Compile(c.net.Nr, &MinimalRouting{P: NewMinimal(c.net), VCs: 2})
		_, serr := CompileCompact(c.net, 2)
		for which, err := range map[string]error{"Compile": gerr, "CompileCompact": serr} {
			if err == nil {
				t.Fatalf("%s: %s accepted a disconnected network", c.net.Name, which)
			}
			if !strings.Contains(err.Error(), c.pair) {
				t.Errorf("%s: %s error %q does not name the first unreachable pair %s", c.net.Name, which, err, c.pair)
			}
		}
	}
}

// TestCompactRejectsViews verifies the dense-view entry points fail loudly on
// a compact table instead of silently misrouting.
func TestCompactRejectsViews(t *testing.T) {
	net := topo.FBF(3, 3, 1)
	compact, err := CompileCompact(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := compact.CompilePorts(net.Adj); err == nil {
		t.Fatal("CompilePorts on a compact table must error")
	}
	if compact.Ports(0, 1) != nil || compact.NextWords(0, 1) != nil {
		t.Fatal("Ports/NextWords views must be nil on a compact table")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Route on a compact table must panic")
		}
	}()
	compact.Route(0, 1)
}

// TestCompactSelfAndBounds pins the degenerate pairs: src == dst
// reconstructs the single-router path with an immediate eject word.
func TestCompactSelfAndBounds(t *testing.T) {
	net := topo.FBF(3, 3, 1)
	compact, err := CompileCompact(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	path, vcs, ports, next := compact.AppendRoute(nil, nil, nil, nil, 4, 4)
	if len(path) != 1 || path[0] != 4 || len(vcs) != 0 || len(ports) != 0 {
		t.Fatalf("self route: path %v vcs %v ports %v", path, vcs, ports)
	}
	if len(next) != 1 || next[0] != NextEject {
		t.Fatalf("self route next = %v, want [NextEject]", next)
	}
	if NextEject != math.MaxUint32 {
		t.Fatalf("NextEject = %#x", uint32(NextEject))
	}
}
