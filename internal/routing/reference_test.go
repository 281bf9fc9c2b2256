package routing

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// Route walks for the tests. walkWords follows a route the way the engine
// does, one Next call per hop with the waypoint switch; refNextWords and
// refAscending are the word walks that stored a route per packet before the
// engine computed each hop's word at send time, kept as the reference
// TestNextMatchesStoredWalk holds walkWords to.

// walkWords appends the NextEject-terminated next-hop words of the route
// from src to dst through waypoint via (heading for via while the hop index
// is below viaHops; viaHops 0 is the table's own route) to next and returns
// it. It panics on a walk longer than a two-segment route can be.
func walkWords(t *RouteTable, next []uint32, src, dst, via, viaHops int) []uint32 {
	for cur, hop := src, 0; ; hop++ {
		if hop > 2*t.nr {
			panic("routing: route walk does not terminate")
		}
		target := dst
		if hop < viaHops {
			target = via
		}
		w := t.Next(src, cur, target, hop)
		if next = append(next, w); w == NextEject {
			return next
		}
		cur = t.adj[cur][w>>16]
	}
}

// refNextWords is the stored-route walk of a static route: the
// NextEject-terminated words of the src->dst route, the VC rule picked once
// per route.
func refNextWords(t *RouteTable, next []uint32, src, dst int) []uint32 {
	switch t.kind.Class {
	case ClassGeneric, ClassFBF:
		next = refAscending(t, next, src, dst, 0)
	case ClassMesh:
		for cur, hop := src, 0; cur != dst; hop++ {
			p := t.Port(cur, dst, hop)
			next = append(next, nextWord(p, hop%t.vcs, t.vcs))
			cur = t.adj[cur][p]
		}
	default: // torus, PFBF
		xHops, xVC, yVC := t.phases(src, dst)
		for cur, hop := src, 0; cur != dst; hop++ {
			vc := yVC
			if hop < xHops {
				vc = xVC
			}
			p := t.Port(cur, dst, hop)
			next = append(next, nextWord(p, vc, t.vcs))
			cur = t.adj[cur][p]
		}
	}
	return append(next, NextEject)
}

// refAscending is the stored-route walk of one ascending segment: the words
// of the src->dst route with its first hop numbered hop, with no NextEject,
// so a Valiant route joins two segments.
func refAscending(t *RouteTable, next []uint32, src, dst, hop int) []uint32 {
	for cur, step := src, 0; cur != dst; step++ {
		p := t.Port(cur, dst, step)
		next = append(next, nextWord(p, min(hop+step, t.vcs-1), t.vcs))
		cur = t.adj[cur][p]
	}
	return next
}

// TestNextMatchesStoredWalk holds the per-hop words against the stored-route
// walks, pair by pair: every static route of the golden-grid presets (cm4,
// t2d4, t2d54, fbf54, pfbf3) and sn_subgr_200 at 1 to 4 VCs (from 2 where
// the builder needs it); and, on the generic tables of sn_subgr_200 and fbf4,
// every Valiant route src->mid->dst UGAL can pick and every minimal first
// hop MinAdaptive can pick, each as a waypoint route.
func TestNextMatchesStoredWalk(t *testing.T) {
	sn := snNet(t, 5, 4, core.LayoutSubgroup)
	static := []struct {
		name string
		net  *topo.Network
		kind Kind
	}{
		{"cm4", topo.Mesh2D(10, 5, 4), Kind{Class: ClassMesh, RX: 10, RY: 5}},
		{"t2d4", topo.Torus2D(10, 5, 4), Kind{Class: ClassTorus, RX: 10, RY: 5}},
		{"t2d54", topo.Torus2D(6, 3, 3), Kind{Class: ClassTorus, RX: 6, RY: 3}},
		{"fbf54", topo.FBF(6, 3, 3), Kind{Class: ClassFBF, RX: 6, RY: 3}},
		{"pfbf3", topo.PFBF(2, 2, 4, 4, 3), Kind{Class: ClassPFBF, PX: 2, PY: 2, RX: 4, RY: 4}},
		{"sn_subgr_200", sn, Kind{Class: ClassGeneric}},
	}
	var got, want []uint32
	for _, c := range static {
		for vcs := 1; vcs <= 4; vcs++ {
			if vcs == 1 && (c.kind.Class == ClassTorus || c.kind.Class == ClassPFBF) {
				continue
			}
			tab, err := NewTable(c.net, c.kind, vcs)
			if err != nil {
				t.Fatal(err)
			}
			for src := 0; src < c.net.Nr; src++ {
				for dst := 0; dst < c.net.Nr; dst++ {
					got = walkWords(tab, got[:0], src, dst, 0, 0)
					if want = refNextWords(tab, want[:0], src, dst); !slices.Equal(got, want) {
						t.Fatalf("%s vcs=%d %d->%d: Next walks %#x, the stored walk %#x", c.name, vcs, src, dst, got, want)
					}
				}
			}
		}
	}
	for _, c := range []struct {
		name string
		net  *topo.Network
	}{{"sn_subgr_200", sn}, {"fbf4", topo.FBF(10, 5, 4)}} {
		for vcs := 1; vcs <= 4; vcs++ {
			tab, err := CompileCompact(c.net, vcs)
			if err != nil {
				t.Fatal(err)
			}
			nr := c.net.Nr
			for src := 0; src < nr; src++ {
				for dst := 0; dst < nr; dst++ {
					for mid := 0; mid < nr; mid++ {
						if mid == src || mid == dst {
							continue
						}
						got = walkWords(tab, got[:0], src, dst, mid, tab.Hops(src, mid))
						want = refAscending(tab, want[:0], src, mid, 0)
						want = append(refAscending(tab, want, mid, dst, len(want)), NextEject)
						if !slices.Equal(got, want) {
							t.Fatalf("%s vcs=%d %d->%d->%d: Next walks %#x, the stored walk %#x", c.name, vcs, src, mid, dst, got, want)
						}
					}
					if src == dst {
						continue
					}
					hops := tab.Hops(src, dst)
					for p, v := range c.net.Adj[src] {
						if tab.Hops(v, dst) != hops-1 {
							continue
						}
						got = walkWords(tab, got[:0], src, dst, v, 1)
						want = append(refAscending(tab, append(want[:0], nextWord(p, 0, vcs)), v, dst, 1), NextEject)
						if !slices.Equal(got, want) {
							t.Fatalf("%s vcs=%d %d->%d first hop %d: Next walks %#x, the stored walk %#x", c.name, vcs, src, dst, v, got, want)
						}
					}
				}
			}
		}
	}
}
