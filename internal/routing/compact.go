// Compact (next-hop-only) route tables. A dense RouteTable interns every
// (src,dst) path — three int32 offsets per pair plus the path bytes — which
// reaches gigabytes at the paper's 100k-endpoint scale (§3: SN networks keep
// thousands of routers even at high concentration). But the deterministic
// minimal routes those networks use (MinimalRouting / NewMinimal) are
// next-hop-consistent by construction: the path from src is src followed by
// the path from next[src][dst], because MinPath itself walks the per-pair
// next-hop function. The whole table therefore compresses to ONE byte per
// pair — the output-port index at src toward dst — and paths, ascending VC
// assignments and next-hop words are reconstructed on the fly by walking the
// next-hop bytes through the adjacency, byte-identical to what the dense
// table would have interned.
//
// CompileCompact builds that form directly with one BFS per destination and
// O(nr) scratch, never materialising the all-pairs Paths matrix (whose
// dist+next arrays are 6 bytes per pair — themselves over budget at 100k
// endpoints). The same sweep is also how dense minimal-route tables are
// built: it records the distance census (DenseBytes), and Dense expands the
// bytes into the interned arrays at their exact size.

package routing

import (
	"fmt"
	"math"

	"repro/internal/topo"
)

// cnhNone marks the pairs with no next hop, src == dst. Compact compilation
// caps the radix at 254 so the sentinel can never be a real port.
const cnhNone = 0xff

// CompileCompact builds the compact next-hop form of deterministic minimal
// routing with ascending VCs — the same routes MinimalRouting{NewMinimal(net)}
// produces and Compile+CompilePorts would intern, reproduced from one byte
// per (src,dst) pair. The returned table reports Compact() true: callers
// reconstruct routes with AppendRoute instead of borrowing Route views. The
// adjacency is retained (not copied) and must not be mutated afterwards —
// the same immutability contract WithNetwork already demands.
//
// This is the one all-pairs sweep deterministic minimal routing needs: one
// BFS per destination with O(nr) scratch yields the next-hop byte of every
// pair and, from the same distances, the census DenseBytes reports; Dense
// lays the interned form down from those bytes without searching the graph
// again. A disconnected network is an error naming the first unreachable
// pair — no table form can route it.
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
	// The BFS layers reproduce NewMinimal's dist exactly; the next hop is
	// NewMinimal's deterministic tie-break — the first (lowest-index, rows
	// are sorted) neighbour strictly closer to the destination — recorded as
	// its port position.
	dist := make([]int32, nr)
	queue := make([]int32, 0, nr)
	for dst := 0; dst < nr; dst++ {
		order := net.BFS(dst, dist, queue)
		if len(order) < nr {
			// Adjacency is symmetric, so the first sweep to come up short
			// is destination 0 and the lowest router it missed is the pair
			// Compile's row-major walk would trip over first.
			for r := range dist {
				if dist[r] < 0 {
					return nil, unreachableError(dst, r)
				}
			}
		}
		t.cnh[dst*nr+dst] = cnhNone
		for _, r := range order[1:] {
			t.csum += int64(dist[r])
			for pos, v := range net.Adj[r] {
				if dist[v] == dist[r]-1 {
					t.cnh[int(r)*nr+dst] = uint8(pos)
					break
				}
			}
		}
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
// their own buffers with AppendRoute.
func (t *RouteTable) Compact() bool { return t.cnh != nil }

// DenseBytes returns the resident footprint Dense's table would have — and
// Compile + CompilePorts' table of the same routes has — without building
// it, from the distance census CompileCompact's sweep took. A pair at
// distance d interns 12 B of offsets, (d+1)*4 B of routers, d B of hop VCs,
// d B of ports and (d+1)*4 B of next-hop words — 20 + 10*d bytes — so the
// figure is exact, not a bound. The nr^2 x 12 offset floor alone badly
// underestimates long-path topologies: a 35x36 torus at 10k endpoints
// floors at 19 MiB but interns ~370 MiB once its ~18-hop average routes
// are laid down. Only valid on compact tables.
func (t *RouteTable) DenseBytes() int64 {
	if t.cnh == nil {
		panic("routing: DenseBytes on a non-compact table (use MemBytes)")
	}
	return 20*int64(t.nr)*int64(t.nr) + 10*t.csum
}

// Dense lays down the dense interned form of a compact table's routes: all
// seven arrays allocated once at the size the census gives and filled in
// Compile's row-major pair order by walking the next-hop bytes — the port is
// the byte, the VC min(hop, vcs-1), the next-hop word follows from both, the
// next router is one adjacency index. The result equals
// Compile(MinimalRouting{NewMinimal(net)}) + CompilePorts array for array,
// shares nothing with the compact table, and is immutable like any compiled
// table.
func (t *RouteTable) Dense() (*RouteTable, error) {
	if t.cnh == nil {
		return nil, fmt.Errorf("routing: Dense on a non-compact table")
	}
	nr := t.nr
	pairs := int64(nr) * int64(nr)
	if pairs+t.csum > math.MaxInt32 {
		return nil, fmt.Errorf("routing: dense table of %d routers needs %d path entries, beyond its int32 offsets", nr, pairs+t.csum)
	}
	d := &RouteTable{
		nr:      nr,
		vcs:     t.vcs,
		off:     make([]int32, pairs),
		voff:    make([]int32, pairs),
		plen:    make([]int32, pairs),
		routers: make([]int32, pairs+t.csum),
		nextw:   make([]uint32, pairs+t.csum),
		hopVCs:  make([]uint8, t.csum),
		ports:   make([]uint8, t.csum),
	}
	o, vo := 0, 0 // cursors into routers/nextw and hopVCs/ports
	for src := 0; src < nr; src++ {
		for dst := 0; dst < nr; dst++ {
			pair := src*nr + dst
			d.off[pair], d.voff[pair] = int32(o), int32(vo)
			start := o
			for cur, hop := src, 0; cur != dst; hop++ {
				p := t.cnh[cur*nr+dst]
				vc := min(hop, t.vcs-1)
				d.routers[o] = int32(cur)
				d.nextw[o] = NextWord(int(p), vc, t.vcs)
				d.hopVCs[vo] = uint8(vc)
				d.ports[vo] = p
				o++
				vo++
				cur = t.cadj[cur][p]
			}
			d.routers[o] = int32(dst)
			d.nextw[o] = NextEject
			o++
			d.plen[pair] = int32(o - start)
		}
	}
	return d, nil
}

// AppendRoute reconstructs the src->dst route into the caller's four buffers
// and returns them: the router path (inclusive of both endpoints), the
// per-hop ascending VCs, the per-hop output ports, and the NextEject-
// terminated next-hop words — element for element what Route, Ports and
// NextWords return on a dense CompilePorts'd table of the same routes.
// Allocation-free once the buffers have reached their high-water capacity.
// src == dst appends the single-router path. Only valid on compact tables.
//
//sim:hot
func (t *RouteTable) AppendRoute(path []int32, vcs, ports []uint8, next []uint32, src, dst int) ([]int32, []uint8, []uint8, []uint32) {
	if t.cnh == nil {
		panic("routing: AppendRoute on a non-compact table (use Route/Ports/NextWords views)")
	}
	if src == dst {
		//detlint:allow hotalloc amortised append into caller-owned buffers whose capacity the packet freelist retains across cycles
		return append(path, int32(src)), vcs, ports, append(next, NextEject)
	}
	cur := src
	path = append(path, int32(cur))
	for hop := 0; cur != dst; hop++ {
		if hop >= t.nr {
			panic("routing: compact next-hop walk does not terminate (corrupt table or mutated adjacency)")
		}
		p := t.cnh[cur*t.nr+dst]
		vc := hop
		if vc >= t.vcs {
			vc = t.vcs - 1
		}
		vcs = append(vcs, uint8(vc))
		ports = append(ports, p)
		next = append(next, NextWord(int(p), vc, t.vcs))
		cur = t.cadj[cur][p]
		path = append(path, int32(cur))
	}
	//detlint:allow hotalloc amortised append into a caller-owned buffer whose capacity the packet freelist retains across cycles
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
