package routing

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// channelGraph is the dependency graph over (directed link, VC) channels of
// a set of routes (Dally–Seitz): channel a depends on channel b when some
// route holds a while it requests b, its next hop. Routing over the set is
// deadlock-free if the graph is acyclic. The edges come from the per-hop
// transitions: each route is followed one Next call at a time, with the
// engine's waypoint switch (walkWords), and consecutive channels are joined;
// no path is stored.
type channelGraph struct {
	tab   *RouteTable
	base  []int    // [r] index of router r's first output link
	n     int      // channels: links x VCs
	w     int      // words per row of dep
	dep   []uint64 // bit b of row a: channel a depends on channel b
	words []uint32 // walk scratch
}

func newChannelGraph(tab *RouteTable) *channelGraph {
	g := &channelGraph{tab: tab, base: make([]int, tab.nr)}
	links := 0
	for r, adj := range tab.adj {
		g.base[r] = links
		links += len(adj)
	}
	g.n = links * tab.vcs
	g.w = (g.n + 63) / 64
	g.dep = make([]uint64, g.n*g.w)
	return g
}

// route adds the dependencies of the src->dst route through waypoint via
// (viaHops 0: the table's own route).
func (g *channelGraph) route(src, dst, via, viaHops int) {
	g.words = walkWords(g.tab, g.words[:0], src, dst, via, viaHops)
	prev := -1
	for cur, i := src, 0; g.words[i] != NextEject; i++ {
		w := g.words[i]
		// The word's low half is port*vcs+vc, the channel's offset in its
		// router's block.
		c := g.base[cur]*g.tab.vcs + int(w&0xffff)
		if prev >= 0 {
			g.dep[prev*g.w+c/64] |= 1 << uint(c%64)
		}
		prev, cur = c, g.tab.adj[cur][w>>16]
	}
}

// cycle returns one dependency cycle as channel indices, or nil if the
// graph is acyclic (a depth-first search).
func (g *channelGraph) cycle() []int {
	const (
		white = iota
		grey
		black
	)
	color := make([]uint8, g.n)
	var stack []int
	var visit func(c int) []int
	visit = func(c int) []int {
		color[c] = grey
		stack = append(stack, c)
		for wi, word := range g.dep[c*g.w : (c+1)*g.w] {
			for ; word != 0; word &= word - 1 {
				switch d := wi*64 + bits.TrailingZeros64(word); color[d] {
				case grey:
					return slices.Clone(stack[slices.Index(stack, d):])
				case white:
					if cyc := visit(d); cyc != nil {
						return cyc
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[c] = black
		return nil
	}
	for c := range color {
		if color[c] == white {
			if cyc := visit(c); cyc != nil {
				return cyc
			}
		}
	}
	return nil
}

// describe names a cycle's channels as "from->to/vc".
func (g *channelGraph) describe(cyc []int) string {
	var b strings.Builder
	for _, c := range cyc {
		link, vc := c/g.tab.vcs, c%g.tab.vcs
		r := 0
		for r+1 < len(g.base) && g.base[r+1] <= link {
			r++
		}
		fmt.Fprintf(&b, " %d->%d/%d", r, g.tab.adj[r][link-g.base[r]], vc)
	}
	return b.String()
}

// dependencies builds the channel graph of a routing's routes on net at vcs
// VCs. "auto" is the static table NewTable compiles for kind. The adaptive
// policies take the union of every route they can choose on the generic
// minimal table adaptive runs walk: "ugal" the minimal route and every
// Valiant route through an intermediate other than the endpoints,
// "min-adapt" every minimal first hop.
func dependencies(t *testing.T, net *topo.Network, kind Kind, policy string, vcs int) *channelGraph {
	t.Helper()
	var tab *RouteTable
	var err error
	if policy == "auto" {
		tab, err = NewTable(net, kind, vcs)
	} else {
		tab, err = CompileCompact(net, vcs)
	}
	if err != nil {
		t.Fatal(err)
	}
	g := newChannelGraph(tab)
	for src := 0; src < net.Nr; src++ {
		for dst := 0; dst < net.Nr; dst++ {
			if src == dst {
				continue
			}
			g.route(src, dst, 0, 0)
			switch policy {
			case "ugal":
				for mid := 0; mid < net.Nr; mid++ {
					if mid != src && mid != dst {
						g.route(src, dst, mid, tab.Hops(src, mid))
					}
				}
			case "min-adapt":
				hops := tab.Hops(src, dst)
				for _, v := range net.Adj[src] {
					if tab.Hops(v, dst) == hops-1 {
						g.route(src, dst, v, 1)
					}
				}
			}
		}
	}
	return g
}

// TestChannelDependencyVerdicts pins which routings are deadlock-free by
// the channel-dependency check, on the N≈200 and N=54 presets (slimnoc's
// Table 4 shapes, built here from the same constructors) and the §6
// adaptive configurations:
//   - "auto" is acyclic on every preset at 2, 3 and 4 VCs;
//   - Fig. 20's configurations are acyclic at 4 VCs: UGAL on sn_subgr_200
//     and fbf4, min-adapt on fbf4.
//
// And as found, outside what the figures run:
//   - "auto" on every Slim NoC at 1 VC is cyclic: ascending VCs need a
//     class per hop of the diameter;
//   - the UGAL union at 2 VCs on sn_subgr_200 is cyclic (its Valiant
//     routes run up to 4 hops, the last 3 on VC 1);
//   - the UGAL union at 4 VCs on pfbf3 and min-adapt at 4 VCs on t2d3 and
//     t2d4 are cyclic.
func TestChannelDependencyVerdicts(t *testing.T) {
	sn := func(layout core.Layout, n int) *topo.Network {
		p, err := core.FromNetworkSize(n)
		if err != nil {
			t.Fatal(err)
		}
		return snNet(t, p.Q, p.P, layout)
	}
	generic := Kind{Class: ClassGeneric}
	type preset struct {
		name string
		net  *topo.Network
		kind Kind
	}
	slim := []preset{
		{"sn_subgr_200", sn(core.LayoutSubgroup, 200), generic},
		{"sn_gr_200", sn(core.LayoutGroup, 200), generic},
		{"sn_basic_200", sn(core.LayoutBasic, 200), generic},
		{"sn_subgr_54", sn(core.LayoutSubgroup, 54), generic},
	}
	presets := append([]preset{
		{"cm3", topo.Mesh2D(8, 8, 3), Kind{Class: ClassMesh, RX: 8, RY: 8}},
		{"cm4", topo.Mesh2D(10, 5, 4), Kind{Class: ClassMesh, RX: 10, RY: 5}},
		{"t2d3", topo.Torus2D(8, 8, 3), Kind{Class: ClassTorus, RX: 8, RY: 8}},
		{"t2d4", topo.Torus2D(10, 5, 4), Kind{Class: ClassTorus, RX: 10, RY: 5}},
		{"fbf3", topo.FBF(8, 8, 3), Kind{Class: ClassFBF, RX: 8, RY: 8}},
		{"fbf4", topo.FBF(10, 5, 4), Kind{Class: ClassFBF, RX: 10, RY: 5}},
		{"pfbf3", topo.PFBF(2, 2, 4, 4, 3), Kind{Class: ClassPFBF, PX: 2, PY: 2, RX: 4, RY: 4}},
		{"pfbf4", topo.PFBF(2, 1, 5, 5, 4), Kind{Class: ClassPFBF, PX: 2, PY: 1, RX: 5, RY: 5}},
		{"t2d54", topo.Torus2D(6, 3, 3), Kind{Class: ClassTorus, RX: 6, RY: 3}},
		{"fbf54", topo.FBF(6, 3, 3), Kind{Class: ClassFBF, RX: 6, RY: 3}},
		{"pfbf54", topo.PFBF(2, 1, 3, 3, 3), Kind{Class: ClassPFBF, PX: 2, PY: 1, RX: 3, RY: 3}},
	}, slim...)
	byName := map[string]preset{}
	type verdict struct {
		net, policy string
		vcs         int
		cyclic      bool
	}
	var want []verdict
	for _, p := range presets {
		byName[p.name] = p
		for vcs := 2; vcs <= 4; vcs++ {
			want = append(want, verdict{p.name, "auto", vcs, false})
		}
	}
	for _, p := range slim {
		want = append(want, verdict{p.name, "auto", 1, true})
	}
	want = append(want,
		verdict{"sn_subgr_200", "ugal", 4, false},
		verdict{"fbf4", "ugal", 4, false},
		verdict{"fbf4", "min-adapt", 4, false},
		verdict{"sn_subgr_200", "ugal", 2, true},
		verdict{"pfbf3", "ugal", 4, true},
		verdict{"t2d3", "min-adapt", 4, true},
		verdict{"t2d4", "min-adapt", 4, true},
	)
	for _, v := range want {
		p := byName[v.net]
		g := dependencies(t, p.net, p.kind, v.policy, v.vcs)
		switch cyc := g.cycle(); {
		case cyc != nil && !v.cyclic:
			t.Errorf("%s %s at %d VCs: dependency cycle%s", v.net, v.policy, v.vcs, g.describe(cyc))
		case cyc == nil && v.cyclic:
			t.Errorf("%s %s at %d VCs: acyclic, want the cycle pinned as found", v.net, v.policy, v.vcs)
		case cyc != nil:
			t.Logf("%s %s at %d VCs: cycle%s", v.net, v.policy, v.vcs, g.describe(cyc))
		}
	}
}
