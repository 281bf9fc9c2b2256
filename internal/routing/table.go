// Compiled route tables. A RouteTable is the flattened, interned form of a
// PathBuilder: per-(src,dst) router paths and VC assignments stored in two
// shared backing arrays, handed out as sub-slice views so the simulator's
// packets borrow their route instead of copying it. Compiled (eager) tables
// are immutable and safe to share across any number of concurrent
// simulations — the campaign engine builds one per distinct
// (network, routing, VCs) combination and reuses it for every point.

package routing

import "fmt"

// RouteTable holds precomputed (or deterministically memoized) routes for
// one network and one PathBuilder. Paths returned by Route are views into
// interned storage and must be treated as read-only by callers.
type RouteTable struct {
	nr  int
	vcs int
	// pb is retained only by memoizing tables; Compile drops it, freezing
	// the table.
	pb PathBuilder

	// Interned storage: every compiled path's routers and per-hop VCs,
	// concatenated. off/voff/plen index it per (src*nr+dst) pair; off < 0
	// marks a pair not yet compiled (memoizing tables only).
	routers []int32
	hopVCs  []uint8
	off     []int32
	voff    []int32
	plen    []int32

	// ports holds the per-hop output-port indices, aligned element for
	// element with hopVCs (same voff indexing): ports[voff+i] is the output
	// port at path[i] leading to path[i+1]. Filled by CompilePorts; empty
	// until then. Precomputing the ports moves the simulator's per-flit
	// adjacency binary search out of the switch-allocation hot path.
	ports []uint8

	// nextw holds the per-hop next-hop words (NextWord encoding: output
	// port and the port*vcs+vc slot offset in one uint32), aligned with
	// routers (same off indexing, plen entries per pair) and terminated by
	// NextEject at each path's final hop. Filled by CompilePorts. The
	// simulator's switch allocation arbitrates on these words alone — one
	// dense load per probe, no packet or table access until a flit moves.
	nextw []uint32

	// Compact mode (see compact.go): next-hop-only storage, one output-port
	// byte per (src,dst) pair, with the network adjacency borrowed for the
	// reconstruction walks. Mutually exclusive with the interned storage
	// above: a compact table has no off/voff/plen arrays at all — that is
	// the point — and serves routes via AppendNextWords/AppendRoute instead
	// of views.
	cnh  []uint8 // [src*nr+dst] output port at src toward dst; cnhNone if src == dst
	cadj [][]int // borrowed adjacency (sorted rows), for next-hop resolution
}

// NextEject is the next-hop word of a path's final hop: the router visit is
// an ejection, not a traversal. Real encodings never collide with it (or
// with any sentinel down to NextEject-255: ports are at most 254 and slots
// at most 254*63+62, so a real word is at most 0x00fe3efe).
const NextEject = ^uint32(0)

// NextWord encodes one hop's switch-allocation decision: the output port in
// bits 16..23 (for output-conflict masking) and the port*vcs+vc slot offset
// in bits 0..15 (the per-VC output index relative to the router's block in
// the simulator's flattened state).
//
//sim:hot
func NextWord(port, vc, vcs int) uint32 {
	return uint32(port)<<16 | uint32(port*vcs+vc)
}

func newTable(nr int, pb PathBuilder) *RouteTable {
	t := &RouteTable{
		nr:   nr,
		vcs:  pb.NumVCs(),
		pb:   pb,
		off:  make([]int32, nr*nr),
		voff: make([]int32, nr*nr),
		plen: make([]int32, nr*nr),
	}
	for i := range t.off {
		t.off[i] = -1
	}
	return t
}

// Compile eagerly builds the full nr x nr route table from the builder. The
// returned table is immutable: it never touches the builder again, and
// concurrent readers need no synchronisation.
func Compile(nr int, pb PathBuilder) (*RouteTable, error) {
	t := newTable(nr, pb)
	for src := 0; src < nr; src++ {
		for dst := 0; dst < nr; dst++ {
			if err := t.fill(src, dst); err != nil {
				return nil, err
			}
		}
	}
	t.pb = nil // frozen
	return t, nil
}

// NewMemoTable builds a lazily filled table: each (src,dst) pair is compiled
// on first use and reused afterwards. Because the builder is deterministic,
// the memoized route is identical to an eagerly compiled one. A memoizing
// table mutates itself on lookup and is therefore NOT safe for concurrent
// use; share only tables built with Compile.
func NewMemoTable(nr int, pb PathBuilder) *RouteTable {
	return newTable(nr, pb)
}

func (t *RouteTable) fill(src, dst int) error {
	path, vcs := t.pb.Route(src, dst)
	if len(path) == 0 {
		return unreachableError(src, dst)
	}
	if len(vcs) != len(path)-1 {
		return fmt.Errorf("routing: table compile %d->%d: %d vcs for %d hops",
			src, dst, len(vcs), len(path)-1)
	}
	pair := src*t.nr + dst
	t.off[pair] = int32(len(t.routers))
	t.voff[pair] = int32(len(t.hopVCs))
	t.plen[pair] = int32(len(path))
	for _, r := range path {
		t.routers = append(t.routers, int32(r))
	}
	for _, v := range vcs {
		t.hopVCs = append(t.hopVCs, uint8(v))
	}
	return nil
}

// Route returns the router path (inclusive of both endpoints) and per-hop VC
// assignment for src->dst as borrowed, read-only views into the table's
// interned storage. On a memoizing table a first-time pair is compiled on
// the spot; compile errors panic there, since the eager path has already
// validated the builder in every shared configuration.
func (t *RouteTable) Route(src, dst int) ([]int32, []uint8) {
	if t.cnh != nil {
		panic("routing: Route on a compact table (reconstruct with AppendRoute)")
	}
	pair := src*t.nr + dst
	if t.off[pair] < 0 {
		if t.pb == nil {
			panic("routing: frozen RouteTable missing a pair")
		}
		if err := t.fill(src, dst); err != nil {
			panic(err)
		}
	}
	o, n := t.off[pair], t.plen[pair]
	vo := t.voff[pair]
	hops := n - 1
	if hops < 0 {
		hops = 0
	}
	return t.routers[o : o+n : o+n], t.hopVCs[vo : vo+hops : vo+hops]
}

// CompilePorts resolves every compiled hop to its output-port index in the
// sender's (sorted) adjacency row, making Ports views available. It may only
// be called on a frozen table (built with Compile): a memoizing table keeps
// compiling new pairs, whose port entries would be missing. The adjacency
// must be the network the table was compiled for; ports are uint8, so router
// radixes beyond 255 are rejected (no supported topology comes close).
func (t *RouteTable) CompilePorts(adj [][]int) error {
	if t.cnh != nil {
		return fmt.Errorf("routing: CompilePorts on a compact table (its ports come from AppendRoute)")
	}
	if t.pb != nil {
		return fmt.Errorf("routing: CompilePorts requires a frozen table (use Compile, not NewMemoTable)")
	}
	if len(adj) != t.nr {
		return fmt.Errorf("routing: CompilePorts adjacency has %d routers, table compiled for %d", len(adj), t.nr)
	}
	for r := range adj {
		if len(adj[r]) > 255 {
			return fmt.Errorf("routing: router %d radix %d exceeds the 255-port limit", r, len(adj[r]))
		}
	}
	ports := make([]uint8, len(t.hopVCs))
	nextw := make([]uint32, len(t.routers))
	for pair, o := range t.off {
		if o < 0 {
			continue
		}
		n, vo := int(t.plen[pair]), int(t.voff[pair])
		path := t.routers[o : int(o)+n]
		for i := 0; i+1 < n; i++ {
			pos, ok := searchAdj(adj[path[i]], int(path[i+1]))
			if !ok {
				return fmt.Errorf("routing: compiled route %d->%d uses missing link %d->%d",
					pair/t.nr, pair%t.nr, path[i], path[i+1])
			}
			ports[vo+i] = uint8(pos)
			nextw[int(o)+i] = NextWord(pos, int(t.hopVCs[vo+i]), t.vcs)
		}
		if n > 0 {
			nextw[int(o)+n-1] = NextEject
		}
	}
	t.ports = ports
	t.nextw = nextw
	return nil
}

// searchAdj binary-searches a sorted adjacency row for nxt, returning its
// position (the output-port index).
func searchAdj(adj []int, nxt int) (int, bool) {
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < nxt {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(adj) || adj[lo] != nxt {
		return 0, false
	}
	return lo, true
}

// HasPorts reports whether per-hop output ports are available — CompilePorts
// has run (dense tables) or the table is compact (its bytes are the ports).
func (t *RouteTable) HasPorts() bool { return t.ports != nil || t.cnh != nil }

// Ports returns the per-hop output ports for src->dst (len(path)-1 entries,
// aligned with the VC view from Route) as a borrowed read-only view, or nil
// if CompilePorts has not run. Pairs are never compiled here — callers pair
// it with Route, which does.
func (t *RouteTable) Ports(src, dst int) []uint8 {
	if t.ports == nil {
		return nil
	}
	pair := src*t.nr + dst
	vo, hops := t.voff[pair], t.plen[pair]-1
	if hops < 0 {
		hops = 0
	}
	return t.ports[vo : vo+hops : vo+hops]
}

// NextWords returns the per-hop next-hop words for src->dst (len(path)
// entries, NextEject-terminated) as a borrowed read-only view, or nil if
// CompilePorts has not run. Pairs are never compiled here — callers pair it
// with Route, which does.
func (t *RouteTable) NextWords(src, dst int) []uint32 {
	if t.nextw == nil {
		return nil
	}
	pair := src*t.nr + dst
	o, n := t.off[pair], t.plen[pair]
	return t.nextw[o : o+n : o+n]
}

// NumVCs returns the VC count of the compiled builder.
func (t *RouteTable) NumVCs() int { return t.vcs }

// Nr returns the router count the table was compiled for.
func (t *RouteTable) Nr() int { return t.nr }

// MemBytes returns the table's resident footprint: the interned path,
// VC and port bytes plus the three per-pair offset arrays. Memory-budget
// enforcement (sim.Config.MemBudgetBytes) uses it to account a shared
// compiled table against a run's budget without reflection.
func (t *RouteTable) MemBytes() int64 {
	return int64(len(t.routers))*4 + int64(len(t.hopVCs)) + int64(len(t.ports)) +
		int64(len(t.nextw))*4 + int64(len(t.cnh)) +
		int64(len(t.off))*4 + int64(len(t.voff))*4 + int64(len(t.plen))*4
}

// Pairs returns the number of compiled (src,dst) pairs (all nr^2 for an
// eager table).
func (t *RouteTable) Pairs() int {
	if t.cnh != nil {
		return t.nr * t.nr // compact tables cover every pair by construction
	}
	n := 0
	for _, o := range t.off {
		if o >= 0 {
			n++
		}
	}
	return n
}

// AppendPath appends the src->dst router path to buf and returns it —
// the allocation-free counterpart of Paths.MinPath for adaptive policies
// reusing table candidates.
func (t *RouteTable) AppendPath(buf []int, src, dst int) []int {
	if t.cnh != nil {
		return t.appendPathOnly(buf, src, dst)
	}
	path, _ := t.Route(src, dst)
	for _, r := range path {
		buf = append(buf, int(r))
	}
	return buf
}

// AppendPathTail appends the src->dst path without its first router (used to
// concatenate Valiant segments without duplicating the intermediate).
func (t *RouteTable) AppendPathTail(buf []int, src, dst int) []int {
	if t.cnh != nil {
		n := len(buf)
		buf = t.appendPathOnly(buf, src, dst)
		if len(buf) > n {
			copy(buf[n:], buf[n+1:])
			buf = buf[:len(buf)-1]
		}
		return buf
	}
	path, _ := t.Route(src, dst)
	for _, r := range path[1:] {
		buf = append(buf, int(r))
	}
	return buf
}

// AppendAscendingVCs appends the paper's ascending VC assignment for the
// given hop count to buf — the allocation-free form of AscendingVCs.
func AppendAscendingVCs(buf []int, hops, numVCs int) []int {
	for i := 0; i < hops; i++ {
		vc := i
		if vc >= numVCs {
			vc = numVCs - 1
		}
		buf = append(buf, vc)
	}
	return buf
}
