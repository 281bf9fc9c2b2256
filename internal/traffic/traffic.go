// Package traffic implements the simulator's workload layer as three
// orthogonal axes composed by the Synthetic source:
//
//   - Pattern (the "where"): the spatial destination distributions of §5.1 —
//     uniform random (RND), bit shuffle (SHF), bit reversal (REV), the two
//     adversarial patterns (ADV1, ADV2), the asymmetric pattern of the
//     Fig. 20 adaptive routing study — plus the Hotspot overlay that
//     concentrates a fraction of any base pattern's traffic on a few hot
//     nodes.
//   - Process (the "when"): the temporal injection process — the paper's
//     open-loop Bernoulli default, the OnOff bursty process with geometric
//     burst lengths, and the MMPP-style Modulated process.
//   - Sizer (the "how much"): the packet-length model — Fixed (the paper's
//     6-flit packets) or the Bimodal short-control/long-data mix.
//
// The ReqReply source sits outside the open-loop composition: it is a
// closed-loop request-reply workload where each node keeps a bounded window
// of outstanding requests, so load self-throttles to delivered bandwidth.
//
// Every component is a deterministic function of the run's RNG stream (an
// *rng.Stream, bit-identical to the math/rand stream of the same seed), and
// the default composition (nil Process, nil Sizer) consumes RNG draws in
// exactly the order the pre-decomposition monolithic source did, so existing
// specs reproduce byte-identical results. Within a cycle the order is: the
// Process's Begin draw, then the injection decisions of the nodes in
// ascending order, with each issuing node's Pattern.Dest and Sizer.Draw draws
// directly after its own decision and before the next node's (see
// Process.Next).
package traffic

import (
	"math/bits"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Pattern maps a source node to a destination node.
type Pattern interface {
	Name() string
	Dest(rng *rng.Stream, src int) int
}

// Uniform is RND: a uniformly random destination other than the source.
type Uniform struct {
	N int
}

// Name implements Pattern.
func (Uniform) Name() string { return "RND" }

// Dest implements Pattern.
func (u Uniform) Dest(rng *rng.Stream, src int) int {
	if u.N < 2 {
		return src
	}
	for {
		d := rng.Intn(u.N)
		if d != src {
			return d
		}
	}
}

// nodeBits returns the number of bits needed to index n nodes.
func nodeBits(n int) int {
	b := 0
	for (1 << b) < n {
		b++
	}
	return b
}

// Shuffle is SHF: the destination ID is the source ID with its bits rotated
// left by one position; out-of-range results wrap modulo N.
//
// Non-power-of-two wrap semantics (deliberate, pinned by
// TestShuffleNonPowerOfTwoWrap): the rotation operates on
// ceil(log2(N))-bit IDs, so for N that is not a power of two it can produce
// values in [N, 2^b). Those are folded back with a plain `% N` rather than
// being rejected or re-rotated. The fold keeps Dest total (every source
// has a destination), cheap, and deterministic, at the cost of the folded
// destinations receiving up to twice the uniform share — an acceptable,
// documented skew for a pattern whose purpose is structured (non-uniform)
// stress, and the convention the paper's own simulator inherits from
// classic k-ary n-cube toolkits. The self-avoidance rule (d == src maps to
// d+1 mod N) runs after the fold.
type Shuffle struct {
	N int
}

// Name implements Pattern.
func (Shuffle) Name() string { return "SHF" }

// Dest implements Pattern.
func (s Shuffle) Dest(rng *rng.Stream, src int) int {
	b := nodeBits(s.N)
	if b == 0 {
		return src
	}
	d := ((src << 1) | (src >> (b - 1))) & ((1 << b) - 1)
	d %= s.N
	if d == src {
		d = (d + 1) % s.N
	}
	return d
}

// Reversal is REV: the destination ID is the bit-reversed source ID.
//
// Non-power-of-two N uses the same deliberate `% N` fold as Shuffle (see
// there for the rationale); pinned by TestReversalNonPowerOfTwoWrap.
type Reversal struct {
	N int
}

// Name implements Pattern.
func (Reversal) Name() string { return "REV" }

// Dest implements Pattern.
func (r Reversal) Dest(rng *rng.Stream, src int) int {
	b := nodeBits(r.N)
	d := 0
	for i := 0; i < b; i++ {
		if src&(1<<i) != 0 {
			d |= 1 << (b - 1 - i)
		}
	}
	d %= r.N
	if d == src {
		d = (d + 1) % r.N
	}
	return d
}

// Adversarial pairs every router with a maximally distant partner router;
// all nodes of a router send to the same slot at the partner. Variant 1
// (ADV1) uses the topologically farthest router, concentrating load on the
// deterministic minimal paths between pairs; variant 2 (ADV2) sends across
// the die to router (r + Nr/2) mod Nr, loading many multi-link paths that
// share intermediate links.
type Adversarial struct {
	Variant int // 1 or 2
	net     *topo.Network
	partner []int
}

// newAdversarial builds ADV1 (variant 1) or ADV2 (variant 2) for a placed
// network.
func newAdversarial(net *topo.Network, variant int) *Adversarial {
	a := &Adversarial{Variant: variant, net: net, partner: make([]int, net.Nr)}
	switch variant {
	case 1:
		// Greedy maximum-distance matching in router order: a permutation, so
		// ejection bandwidth stays balanced while minimal paths are maximally
		// long and deterministic tie-breaking concentrates them on few links.
		// Distances come from the all-pairs sweep one 64-source batch at a
		// time, so the scratch is 64 distance rows, not a matrix.
		nr := net.Nr
		taken := make([]bool, nr)
		dist := make([]int16, 64*nr) // row j: hops from router base+j, -1 if unreachable
		match := func(base, k int) {
			for j := 0; j < k; j++ {
				r := base + j
				best, bestD := -1, int16(-1)
				for o, d := range dist[j*nr : (j+1)*nr] {
					if o != r && !taken[o] && d > bestD {
						best, bestD = o, d
					}
				}
				if best < 0 {
					best = r // odd leftover: self maps identity, filtered in Dest
				}
				taken[best] = true
				a.partner[r] = best
			}
		}
		batch, size := 0, 0 // the batch whose rows are being filled
		net.Sweep(func(base, k, level int, _, cur []uint64) {
			if level == 0 {
				match(batch, size) // the previous batch's rows are complete
				batch, size = base, k
				for i := range dist {
					dist[i] = -1
				}
			}
			for o, w := range cur {
				for ; w != 0; w &= w - 1 {
					dist[bits.TrailingZeros64(w)*nr+o] = int16(level)
				}
			}
		})
		match(batch, size)
	default:
		for r := 0; r < net.Nr; r++ {
			a.partner[r] = (r + net.Nr/2) % net.Nr
		}
	}
	return a
}

// Name implements Pattern.
func (a *Adversarial) Name() string {
	if a.Variant == 1 {
		return "ADV1"
	}
	return "ADV2"
}

// Dest implements Pattern.
func (a *Adversarial) Dest(rng *rng.Stream, src int) int {
	p := a.net.P
	r := a.net.NodeRouter(src)
	slot := src - r*p
	d := a.partner[r]*p + slot
	if d == src {
		d = (d + 1) % a.net.N()
	}
	return d
}

// Asymmetric is the Fig. 20 pattern: with equal probability, destination
// (s mod N/2) + N/2 or (s mod N/2).
type Asymmetric struct {
	N int
}

// Name implements Pattern.
func (Asymmetric) Name() string { return "ASYM" }

// Dest implements Pattern.
func (a Asymmetric) Dest(rng *rng.Stream, src int) int {
	if a.N < 2 {
		return src
	}
	half := a.N / 2
	d := src % half
	if rng.Intn(2) == 1 {
		d += half
	}
	if d == src {
		d = (d + 1) % a.N
	}
	return d
}

// Hotspot overlays any spatial pattern with hot-node concentration: with
// probability Frac the destination is drawn uniformly from the K hot nodes
// (nodes 0..K-1, the convention shared with the trace package's "home
// nodes"), otherwise the base pattern decides — modelling directory homes,
// locks and reduction roots that focus a share of all traffic on a few
// endpoints.
type Hotspot struct {
	// Frac is the probability a packet targets a hot node, in [0, 1].
	Frac float64
	// K is the hot-node count (destinations 0..K-1), >= 1.
	K int
	// N is the total node count (self-avoidance wrap bound).
	N int
	// Base decides the destinations of the remaining 1-Frac share.
	Base Pattern
}

// Name implements Pattern.
func (h Hotspot) Name() string { return "HOT+" + h.Base.Name() }

// Dest implements Pattern.
func (h Hotspot) Dest(rng *rng.Stream, src int) int {
	if rng.Float64() >= h.Frac {
		return h.Base.Dest(rng, src)
	}
	d := rng.Intn(h.K)
	if d == src {
		d = (d + 1) % h.N
	}
	return d
}

// Synthetic is the open-loop composition of the three workload axes: each
// cycle the temporal Process decides which nodes start a packet at the
// configured mean load of Rate flits/node/cycle, the spatial Pattern picks
// each packet's destination, and the Sizer its length. A nil Process is
// Bernoulli and a nil Sizer is Fixed{PacketFlits} — the paper's §5.1 setup,
// with the identical RNG draw sequence as the pre-decomposition source.
// Generate asks the Process for the next issuing node (Process.Next) rather
// than every node for its decision, so a cycle costs one call per packet
// started plus one, not one per node.
type Synthetic struct {
	N           int
	Rate        float64 // flits/node/cycle, mean over the run
	PacketFlits int
	Pattern     Pattern
	// Process reshapes arrivals in time (nil = Bernoulli).
	Process Process
	// Sizer draws per-packet lengths (nil = Fixed{PacketFlits}).
	Sizer Sizer

	// prob is the per-node per-cycle packet-start probability, Rate over the
	// sizer's mean length; pin sets it with the defaults on the first cycle.
	prob   float64
	pinned bool
}

var _ sim.Source = (*Synthetic)(nil)

// Generate implements sim.Source.
func (s *Synthetic) Generate(t int64, rng *rng.Stream, emit func(src, dst, flits, class int)) {
	if !s.pinned {
		s.pin()
	}
	s.Process.Begin(t, rng)
	for node := s.Process.Next(rng, 0, s.N, s.prob); node < s.N; node = s.Process.Next(rng, node+1, s.N, s.prob) {
		emit(node, s.Pattern.Dest(rng, node), s.Sizer.Draw(rng), 0)
	}
}

// pin fixes, on the first cycle, what every later cycle uses: the default
// Process and Sizer and the packet-start probability. Pinning once (not per
// cycle) keeps the interface conversions and the Sizer.Mean call out of the
// steady-state loop; Rate, Process and Sizer must not change afterwards.
func (s *Synthetic) pin() {
	if s.Process == nil {
		s.Process = Bernoulli{}
	}
	if s.Sizer == nil {
		s.Sizer = Fixed{Flits: s.PacketFlits}
	}
	s.prob = s.Rate / s.Sizer.Mean()
	s.pinned = true
}

// OnDelivered implements sim.Source (synthetic traffic has no replies).
func (s *Synthetic) OnDelivered(t int64, src, dst, flits, class int, emit func(src, dst, flits, class int)) {
}

// PatternByName builds one of the paper's patterns for a placed network.
func PatternByName(name string, net *topo.Network) Pattern {
	switch name {
	case "RND":
		return Uniform{N: net.N()}
	case "SHF":
		return Shuffle{N: net.N()}
	case "REV":
		return Reversal{N: net.N()}
	case "ADV1":
		return newAdversarial(net, 1)
	case "ADV2":
		return newAdversarial(net, 2)
	case "ASYM":
		return Asymmetric{N: net.N()}
	}
	return nil
}
