// Temporal injection processes: the "when" axis of the Pattern x Process x
// Sizer decomposition. A Process decides, per node per cycle, whether the
// node starts a packet; the spatial Pattern then picks the destination and
// the Sizer the length. All processes are deterministic functions of the
// run's RNG stream: Begin draws exactly once per cycle, and the Next calls of
// one cycle between them draw for every node exactly once, in ascending node
// order, so a fixed seed always produces the identical injection sequence.

package traffic

import "repro/internal/rng"

// Process is the temporal injection process of a Synthetic source. prob is
// the per-cycle packet-start probability that realises the configured mean
// offered load (Rate divided by the sizer's mean packet length); processes
// reshape arrivals around that mean without changing it.
//
// Implementations must be deterministic given the RNG stream and must not
// allocate after their first Generate cycle: the simulator's steady-state
// loop is zero-allocation, and sources are part of it (pinned by
// TestSteadyStateZeroAllocsWorkloads in internal/sim).
type Process interface {
	Name() string
	// Begin is called once at the top of each generation cycle, before any
	// Next call, so globally modulated processes can advance their state.
	Begin(t int64, rng *rng.Stream)
	// Next returns the first node in [from, n) that starts a packet this
	// cycle, or n if none does. It makes the injection decision — the same
	// draws a per-node loop would make — for every node it passes, the
	// returned one included, in ascending order, and for no node beyond it.
	// Synthetic.Generate calls Next(0), draws the packet's destination and
	// length, and resumes with Next(node+1), so within a cycle the stream
	// reads: decisions of nodes 0..a, Dest and Draw draws of a's packet,
	// decisions of nodes a+1..b, Dest and Draw draws of b's packet, and so
	// on to the decisions of the last nodes.
	Next(rng *rng.Stream, from, n int, prob float64) int
}

// Bernoulli is the paper's open-loop memoryless process (§5.1): every node
// independently starts a packet with probability prob each cycle. It is the
// default when Synthetic.Process is nil and consumes exactly one RNG draw
// per node per cycle — the draw sequence of the original monolithic source,
// so pre-decomposition specs reproduce byte-identical results (pinned by
// the golden fixtures in internal/sim).
type Bernoulli struct{}

// Name implements Process.
func (Bernoulli) Name() string { return "bernoulli" }

// Begin implements Process (memoryless: no per-cycle state, no RNG draw).
func (Bernoulli) Begin(t int64, rng *rng.Stream) {}

// Next implements Process: one scan of the stream for the first draw below
// prob.
func (Bernoulli) Next(rng *rng.Stream, from, n int, prob float64) int {
	return from + rng.FirstBelow(prob, n-from)
}

// OnOff is a two-state bursty process: each node alternates independently
// between an "on" state, where it injects at prob/Duty, and a silent "off"
// state. Dwell times are geometric — the mean on-period is BurstLen cycles
// and the off-period is sized so the long-run on-fraction is Duty — so the
// mean offered load equals the configured rate while arrivals cluster into
// bursts. When prob/Duty exceeds 1 the on-state probability saturates at 1
// and the realised load falls below the nominal rate (inherent to bursty
// traffic near the injection bound).
type OnOff struct {
	// BurstLen is the mean on-period in cycles (>= 1).
	BurstLen float64
	// Duty is the long-run fraction of time a node spends on, in (0, 1].
	// Duty 1 degenerates to Bernoulli.
	Duty float64

	exitOn  float64 // per-cycle probability of ending a burst
	exitOff float64 // per-cycle probability of starting a burst
	on      []bool  // per-node state; all nodes start off
}

// NewOnOff builds the bursty process for n nodes, clamping BurstLen to
// >= 1 and Duty to (0, 1].
func NewOnOff(n int, burstLen, duty float64) *OnOff {
	if burstLen < 1 {
		burstLen = 1
	}
	if duty <= 0 || duty > 1 {
		duty = 1
	}
	o := &OnOff{BurstLen: burstLen, Duty: duty, on: make([]bool, n)}
	o.exitOn = 1 / burstLen
	if duty < 1 {
		// Mean off-period BurstLen*(1-Duty)/Duty makes the stationary
		// on-fraction exactly Duty.
		o.exitOff = duty / ((1 - duty) * burstLen)
	} else {
		o.exitOff = 1
	}
	return o
}

// Name implements Process.
func (o *OnOff) Name() string { return "burst" }

// Begin implements Process (state is per node, advanced in Next).
func (o *OnOff) Begin(t int64, rng *rng.Stream) {}

// Next implements Process: for each node, advance its two-state chain (one
// draw), then draw the injection decision while it is on.
func (o *OnOff) Next(rng *rng.Stream, from, n int, prob float64) int {
	onProb := prob / o.Duty
	for node := from; node < n; node++ {
		if o.on[node] {
			if rng.Float64() < o.exitOn {
				o.on[node] = false
			}
		} else if rng.Float64() < o.exitOff {
			o.on[node] = true
		}
		if o.on[node] && rng.Float64() < onProb {
			return node
		}
	}
	return n
}

// Modulated is an MMPP-style process: one global two-state Markov chain
// modulates every node's injection probability between a high state
// (prob * Factor) and a low state (prob * (2 - Factor)). Both states have
// the same geometric mean dwell time (Period cycles), so the long-run mean
// offered load equals the configured rate while the network sees
// alternating epochs of elevated and depressed pressure.
type Modulated struct {
	// Factor is the high-state rate multiplier, in [1, 2]; the low state
	// uses 2 - Factor so the mean is preserved. Factor 1 degenerates to
	// Bernoulli.
	Factor float64
	// Period is the mean dwell time per state in cycles (>= 1).
	Period float64

	flip float64 // per-cycle state-flip probability (1/Period)
	high bool    // current state; starts low
}

// NewModulated builds the modulated process, clamping Factor to [1, 2] and
// Period to >= 1.
func NewModulated(factor, period float64) *Modulated {
	if factor < 1 {
		factor = 1
	}
	if factor > 2 {
		factor = 2
	}
	if period < 1 {
		period = 1
	}
	return &Modulated{Factor: factor, Period: period, flip: 1 / period}
}

// Name implements Process.
func (m *Modulated) Name() string { return "mmpp" }

// Begin implements Process: one global state-transition draw per cycle.
func (m *Modulated) Begin(t int64, rng *rng.Stream) {
	if rng.Float64() < m.flip {
		m.high = !m.high
	}
}

// Next implements Process: memoryless within a cycle, so one scan at the
// current state's probability.
func (m *Modulated) Next(rng *rng.Stream, from, n int, prob float64) int {
	if m.high {
		prob *= m.Factor
	} else {
		prob *= 2 - m.Factor
	}
	return from + rng.FirstBelow(prob, n-from)
}

// Sizer is the packet-length axis of the decomposition: it draws the flit
// count of each generated packet. Mean reports the expected length, which
// the Synthetic source divides into the flit rate to obtain the per-cycle
// packet probability — so the offered load in flits/node/cycle is preserved
// whatever the mix. Like Process implementations, sizers must be
// deterministic and allocation-free after warm-up.
type Sizer interface {
	Name() string
	Mean() float64
	// Draw returns the flit count of one packet.
	Draw(rng *rng.Stream) int
}

// Fixed sizes every packet at Flits (the paper's 6-flit data packet). It
// consumes no RNG draws, preserving the pre-decomposition draw sequence.
type Fixed struct {
	Flits int
}

// Name implements Sizer.
func (Fixed) Name() string { return "fixed" }

// Mean implements Sizer.
func (f Fixed) Mean() float64 { return float64(f.Flits) }

// Draw implements Sizer.
func (f Fixed) Draw(rng *rng.Stream) int { return f.Flits }

// Bimodal mixes short control packets with long data packets: a packet is
// Short flits with probability ShortFrac and Long flits otherwise — the
// read-request/data-reply length mix of coherence traffic (§5.1 "Real
// Traffic" uses 2- and 6-flit messages).
type Bimodal struct {
	Short, Long int
	// ShortFrac is the probability a packet is short, in [0, 1].
	ShortFrac float64
}

// Name implements Sizer.
func (Bimodal) Name() string { return "bimodal" }

// Mean implements Sizer.
func (b Bimodal) Mean() float64 {
	return b.ShortFrac*float64(b.Short) + (1-b.ShortFrac)*float64(b.Long)
}

// Draw implements Sizer.
func (b Bimodal) Draw(rng *rng.Stream) int {
	if rng.Float64() < b.ShortFrac {
		return b.Short
	}
	return b.Long
}
