package topo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// scalarAllPairs is the reference Sweep replaced, kept here as its oracle: one
// queue BFS per source, then for every router the first adjacency position
// whose neighbour is one hop closer to that source (-1 where there is none:
// the source itself and unreachable pairs) — the deterministic-minimal
// next-hop tie-break.
func scalarAllPairs(n *Network) (dist [][]int32, closer [][]int) {
	dist, closer = make([][]int32, n.Nr), make([][]int, n.Nr)
	queue := make([]int32, 0, n.Nr)
	for s := range dist {
		dist[s] = make([]int32, n.Nr)
		n.BFS(s, dist[s], queue)
		closer[s] = make([]int, n.Nr)
		for r := range closer[s] {
			closer[s][r] = -1
			for pos, v := range n.Adj[r] {
				if dist[s][r] > 0 && dist[s][v] == dist[s][r]-1 {
					closer[s][r] = pos
					break
				}
			}
		}
	}
	return dist, closer
}

// checkSweep runs Sweep on n and holds everything it reports, and everything
// the package derives from it, against the scalar oracle: the call order
// (batches in index order, levels ascending from 0, prev the previous cur,
// no empty frontier, no bit outside the batch), every distance, every
// first-closer position as a consumer reads it off prev, connectedness,
// Diameter and AvgShortestPath.
func checkSweep(t *testing.T, n *Network) {
	t.Helper()
	nr := n.Nr
	dist, closer := scalarAllPairs(n)
	gotDist, gotCloser := make([][]int32, nr), make([][]int, nr)
	for s := range gotDist {
		gotDist[s], gotCloser[s] = make([]int32, nr), make([]int, nr)
		for r := range gotDist[s] {
			gotDist[s][r], gotCloser[s][r] = -1, -1
		}
	}
	nextBase, curBase, lastLevel := 0, -1, 0
	var last []uint64
	connected := n.Sweep(func(base, k, level int, prev, cur []uint64) {
		if level == 0 {
			if base != nextBase || k != min(64, nr-base) || prev != nil {
				t.Fatalf("batch start (base %d, k %d, prev nil %v), want base %d, k %d, nil prev", base, k, prev == nil, nextBase, min(64, nr-base))
			}
			curBase, nextBase = base, base+64
		} else if base != curBase || level != lastLevel+1 || !slices.Equal(prev, last) {
			t.Fatalf("call (base %d, level %d) after (base %d, level %d), prev is the last frontier: %v", base, level, curBase, lastLevel, slices.Equal(prev, last))
		}
		lastLevel, last = level, append(last[:0], cur...)
		if len(cur) != nr {
			t.Fatalf("frontier of %d words for %d routers", len(cur), nr)
		}
		any := uint64(0)
		for r, w := range cur {
			any |= w
			for j := 0; j < 64; j++ {
				if w>>j&1 == 0 {
					continue
				}
				if j >= k {
					t.Fatalf("base %d level %d: router %d carries bit %d outside the %d-source batch", base, level, r, j, k)
				}
				s := base + j
				if gotDist[s][r] != -1 {
					t.Fatalf("router %d reached twice from source %d (levels %d and %d)", r, s, gotDist[s][r], level)
				}
				gotDist[s][r] = int32(level)
				for pos, v := range n.Adj[r] {
					if level > 0 && prev[v]>>j&1 != 0 {
						gotCloser[s][r] = pos
						break
					}
				}
			}
		}
		if any == 0 {
			t.Fatalf("base %d level %d: empty frontier", base, level)
		}
	})
	if nextBase < nr {
		t.Fatalf("sweep stopped before batch %d of %d routers", nextBase, nr)
	}
	total, pairs, diam, wantConnected := 0, 0, 0, true
	for s := range dist {
		if !slices.Equal(gotDist[s], dist[s]) {
			t.Fatalf("distances from %d: sweep %v, BFS %v", s, gotDist[s], dist[s])
		}
		if !slices.Equal(gotCloser[s], closer[s]) {
			t.Fatalf("first closer positions toward %d: sweep %v, BFS %v", s, gotCloser[s], closer[s])
		}
		for _, d := range dist[s] {
			if d < 0 {
				wantConnected = false
			} else if d > 0 {
				total, pairs, diam = total+int(d), pairs+1, max(diam, int(d))
			}
		}
	}
	if connected != wantConnected {
		t.Errorf("Sweep reports connected = %v, BFS says %v", connected, wantConnected)
	}
	if !wantConnected {
		diam = -1
	}
	if got := n.Diameter(); got != diam {
		t.Errorf("Diameter() = %d, BFS says %d", got, diam)
	}
	avg := 0.0
	if pairs > 0 {
		avg = float64(total) / float64(pairs)
	}
	if got := n.AvgShortestPath(); got != avg {
		t.Errorf("AvgShortestPath() = %v, BFS says %v", got, avg)
	}
}

// randomNetwork draws a graph of nr routers: edges random links, plus a random
// spanning path when it must be connected, plus a hub linked to everyone when
// the radix should reach nr-1.
func randomNetwork(rng *rand.Rand, nr, edges int, spanning, hub bool) *Network {
	es := newEdgeSet(nr)
	for e := 0; e < edges; e++ {
		es.add(rng.Intn(nr), rng.Intn(nr))
	}
	if spanning {
		perm := rng.Perm(nr)
		for i := 1; i < nr; i++ {
			es.add(perm[i-1], perm[i])
		}
	}
	if hub {
		h := rng.Intn(nr)
		for r := 0; r < nr; r++ {
			es.add(h, r)
		}
	}
	return &Network{Name: fmt.Sprintf("random%d", nr), Nr: nr, P: 1, Adj: es.lists()}
}

// TestSweepMatchesBFS holds the word-parallel sweep against the scalar oracle
// on every baseline family and on random graphs whose router counts sit on
// and around the 64-source batch boundaries — sparse and dense, connected
// and in pieces, radix up to the compact table's 254-port limit.
func TestSweepMatchesBFS(t *testing.T) {
	df, err := Dragonfly(5, 2, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Network{
		Mesh2D(8, 8, 3), Torus2D(6, 3, 3), Torus2D(9, 8, 1), FBF(12, 12, 9), PFBF(2, 2, 3, 3, 2),
		FoldedClos(25, 7, 8), df, df.RemoveRandomLinks(0.7, 5),
	} {
		t.Run(n.Name, func(t *testing.T) { checkSweep(t, n) })
	}
	rng := rand.New(rand.NewSource(22))
	for _, nr := range []int{1, 2, 63, 64, 65, 127, 128, 129, 200} {
		t.Run(fmt.Sprintf("random%d", nr), func(t *testing.T) {
			for _, edges := range []int{0, nr / 2, nr, 4 * nr, nr * nr / 4} {
				n := randomNetwork(rng, nr, edges, true, false)
				checkSweep(t, n)
				checkSweep(t, n.RemoveRandomLinks(0.5, int64(edges)))
				checkSweep(t, randomNetwork(rng, nr, edges, false, false))
			}
		})
	}
	t.Run("radix254", func(t *testing.T) {
		n := randomNetwork(rng, 255, 600, false, true)
		if n.NetworkRadix() != 254 {
			t.Fatalf("fixture: radix %d, want 254", n.NetworkRadix())
		}
		checkSweep(t, n)
	})
}

// FuzzSweepMatchesBFS is TestSweepMatchesBFS on graphs the fuzzer shapes: a
// seeded adjacency of 1..320 routers with edges/16 links per router,
// optionally spanned, then with drop/255 of its links removed.
func FuzzSweepMatchesBFS(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), false, uint8(0))
	f.Add(int64(2), uint16(63), uint8(40), true, uint8(0))
	f.Add(int64(3), uint16(129), uint8(8), false, uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, edges uint8, spanning bool, drop uint8) {
		rng := rand.New(rand.NewSource(seed))
		nr := int(size)%320 + 1
		n := randomNetwork(rng, nr, nr*int(edges)/16, spanning, false)
		checkSweep(t, n.RemoveRandomLinks(float64(drop)/255, seed))
	})
}
