// Compact (next-hop-only) route tables: the one form deterministic minimal
// routing (MinimalRouting / NewMinimal — what SN, Dragonfly and Clos use)
// compiles to. Those routes are next-hop-consistent by construction: the path
// from src is src followed by the path from next[src][dst], because MinPath
// itself walks the per-pair next-hop function. The whole table is therefore
// ONE byte per pair — the output-port index at src toward dst — and paths,
// ascending VC assignments and next-hop words are reconstructed on the fly by
// walking the next-hop bytes through the adjacency, byte-identical to what
// Compile + CompilePorts would have interned at 20 + 10 x distance bytes per
// pair (gigabytes at the paper's 100k-endpoint scale, §3: SN networks keep
// thousands of routers even at high concentration).
//
// CompileCompact fills the bytes from topo.Network.Sweep, the word-parallel
// all-pairs BFS: 64 destinations advance one level per pass over the
// adjacency, and each router reads its next hop toward all of them off its
// neighbours' frontier words. Scratch is O(nr); the all-pairs Paths matrix
// (6 bytes per pair) is never materialised.

package routing

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/topo"
)

// cnhNone marks the pairs with no next hop, src == dst. Compact compilation
// caps the radix at 254 so the sentinel can never be a real port.
const cnhNone = 0xff

// CompileCompact builds the compact next-hop form of deterministic minimal
// routing with ascending VCs — the same routes MinimalRouting{NewMinimal(net)}
// produces and Compile+CompilePorts would intern, reproduced from one byte
// per (src,dst) pair. The returned table reports Compact() true: callers
// reconstruct routes with AppendNextWords / AppendRoute instead of borrowing
// Route views. The adjacency is retained (not copied) and must not be mutated
// afterwards — the same immutability contract WithNetwork already demands.
//
// The next hop is NewMinimal's deterministic tie-break: the first adjacency
// position (rows are sorted, so the lowest-index neighbour) one step closer
// to the destination. Being positional, it cannot depend on how the sweep
// batches destinations or orders bits. A disconnected network is an error
// naming the first unreachable pair — no table form can route it.
func CompileCompact(net *topo.Network, vcs int) (*RouteTable, error) {
	nr := net.Nr
	if vcs < 1 {
		return nil, fmt.Errorf("routing: CompileCompact needs vcs >= 1, got %d", vcs)
	}
	for r := 0; r < nr; r++ {
		if len(net.Adj[r]) > 254 {
			return nil, fmt.Errorf("routing: router %d radix %d exceeds the compact table's 254-port limit", r, len(net.Adj[r]))
		}
	}
	t := &RouteTable{
		nr:   nr,
		vcs:  vcs,
		cnh:  make([]uint8, nr*nr),
		cadj: net.Adj,
	}
	connected := net.Sweep(func(base, k, level int, prev, cur []uint64) {
		if level == 0 {
			for dst := base; dst < base+k; dst++ {
				t.cnh[dst*nr+dst] = cnhNone
			}
			return
		}
		for r, todo := range cur {
			if todo == 0 {
				continue
			}
			// Bit j of todo: r is level hops from destination base+j, and a
			// neighbour carrying the bit in prev is one hop closer.
			row := t.cnh[r*nr+base : r*nr+base+k]
			for pos, v := range net.Adj[r] {
				for hit := prev[v] & todo; hit != 0; hit &= hit - 1 {
					row[bits.TrailingZeros64(hit)] = uint8(pos)
				}
				if todo &^= prev[v]; todo == 0 {
					break
				}
			}
		}
	})
	if !connected {
		// Adjacency is symmetric, so destination 0 already comes up short,
		// and the lowest router it misses is the pair Compile's row-major
		// walk would trip over first.
		dist := make([]int32, nr)
		net.BFS(0, dist, nil)
		return nil, unreachableError(0, slices.IndexFunc(dist, func(d int32) bool { return d < 0 }))
	}
	return t, nil
}

// unreachableError is the compile failure of a disconnected network, worded
// the same whichever construction meets it.
func unreachableError(src, dst int) error {
	return fmt.Errorf("routing: no route %d->%d: the network is disconnected", src, dst)
}

// Compact reports whether this is a next-hop-only table: Route/Ports/
// NextWords views are unavailable and callers must reconstruct routes into
// their own buffers with AppendNextWords (or AppendRoute for all four views).
func (t *RouteTable) Compact() bool { return t.cnh != nil }

// AppendNextWords appends the NextEject-terminated next-hop words of the
// src->dst route to next and returns it — element for element what NextWords
// returns on a dense CompilePorts'd table of the same routes, and all the
// simulator reads of a route once a packet is queued (the hop count is
// len - 1). Allocation-free once the buffer has reached its high-water
// capacity. src == dst appends the lone NextEject. Only valid on compact
// tables.
//
//sim:hot
func (t *RouteTable) AppendNextWords(next []uint32, src, dst int) []uint32 {
	if t.cnh == nil {
		panic("routing: AppendNextWords on a non-compact table (use the NextWords view)")
	}
	for cur, hop := src, 0; cur != dst; hop++ {
		if hop >= t.nr {
			panic("routing: compact next-hop walk does not terminate (corrupt table or mutated adjacency)")
		}
		p := t.cnh[cur*t.nr+dst]
		next = append(next, NextWord(int(p), min(hop, t.vcs-1), t.vcs))
		cur = t.cadj[cur][p]
	}
	next = append(next, NextEject)
	return next
}

// AppendRoute reconstructs the whole src->dst route into the caller's four
// buffers and returns them: the router path (inclusive of both endpoints),
// the per-hop ascending VCs, the per-hop output ports, and the NextEject-
// terminated next-hop words — element for element what Route, Ports and
// NextWords return on a dense CompilePorts'd table of the same routes. The
// engine needs only the last of the four (AppendNextWords); this is the
// full reconstruction the equivalence tests read. src == dst
// appends the single-router path. Only valid on compact tables.
func (t *RouteTable) AppendRoute(path []int32, vcs, ports []uint8, next []uint32, src, dst int) ([]int32, []uint8, []uint8, []uint32) {
	if t.cnh == nil {
		panic("routing: AppendRoute on a non-compact table (use Route/Ports/NextWords views)")
	}
	cur := src
	path = append(path, int32(cur))
	for hop := 0; cur != dst; hop++ {
		if hop >= t.nr {
			panic("routing: compact next-hop walk does not terminate (corrupt table or mutated adjacency)")
		}
		p := t.cnh[cur*t.nr+dst]
		vc := min(hop, t.vcs-1)
		vcs = append(vcs, uint8(vc))
		ports = append(ports, p)
		next = append(next, NextWord(int(p), vc, t.vcs))
		cur = t.cadj[cur][p]
		path = append(path, int32(cur))
	}
	return path, vcs, ports, append(next, NextEject)
}

// appendPathOnly is the path-only walk behind AppendPath/AppendPathTail on
// compact tables.
func (t *RouteTable) appendPathOnly(buf []int, src, dst int) []int {
	if src == dst {
		return append(buf, src)
	}
	cur := src
	buf = append(buf, cur)
	for hop := 0; cur != dst; hop++ {
		if hop >= t.nr {
			panic("routing: compact next-hop walk does not terminate (corrupt table or mutated adjacency)")
		}
		cur = t.cadj[cur][t.cnh[cur*t.nr+dst]]
		buf = append(buf, cur)
	}
	return buf
}
