// Package sim is a cycle-accurate flit-level network-on-chip simulator, the
// reproduction's stand-in for the paper's in-house simulator (§5.1). It
// models virtual-channel wormhole routers with credit-based flow control and
// multi-cycle links, plus the paper's microarchitectural extensions:
// central-buffer routers with a 2-cycle bypass and 4-cycle buffered path
// (§4.1), ElastiStore-style elastic links (link pipeline registers as
// storage, §4.2), and SMART links that traverse H grid hops per cycle
// (§3.2.2). Packets are source-routed with per-hop VC assignments supplied
// by internal/routing, which guarantees deadlock freedom (§4.3).
//
// The engine is event-driven: nothing is polled. A flit put on a wire rides
// a timing wheel to the cycle it lands, so a link costs work only in the
// cycle a flit arrives; credit returns and delayed ejections ride wheels
// too; a per-domain busy bitset marks the routers with resident flits, and
// a NIC is visited only when it can inject (a packet was queued, or its
// injection queue freed room while packets wait). Static routes come
// pre-compiled as a routing.RouteTable, whose next-hop bytes each packet
// walks once, at enqueue, into a recycled buffer of one next-hop word per
// hop, and packet/buffer freelists make the steady-state cycle loop
// allocation-free.
// All of this is behaviour-preserving: results are byte-identical to the
// original full-scan engine (pinned by the golden-metrics fixture in
// testdata/golden_results.json).
package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topo"
)

// EngineVersion identifies the current simulator-core generation for
// result-store keys. Bump it whenever an engine change alters the metrics a
// given (spec, seed) produces, so content-addressed result stores
// (slimnoc/store) never serve results computed by an incompatible engine.
// Generation 3 is the active-set zero-allocation core with compiled route
// tables; its outputs are pinned against generation 2 by the golden fixture
// in testdata/golden_results.json.
const EngineVersion = "sim-v3"

// maxVCs bounds Config.VCs: VC indices are packed into uint8 per-hop
// assignments and historically into 6-bit central-buffer queue keys, so a
// larger count would silently collide. Validated by New.
const maxVCs = 63

// maxPacketFlits bounds per-packet flit counts: flit.idx/flit.hop are uint16
// so queues and wheels move 16-byte elements. New validates PacketFlits
// against it and EpisodeEngine.Latencies every transfer's size; a source
// emitting more still panics in enqueuePacket (synthetic traffic uses
// single-digit counts).
const maxPacketFlits = 1<<16 - 1

// Config describes one simulation.
type Config struct {
	Net *topo.Network
	// Table is the compiled static routing (routing.NewTable), required
	// unless Adaptive is set. It must be compiled over Net itself — New
	// checks that it walks Net's adjacency — and for VCs. Tables are
	// immutable, so one table may back any number of concurrent
	// simulations — the campaign engine shares one per (network, routing,
	// VCs) combination. Adaptive runs ignore Table.
	Table *routing.RouteTable

	// Buffers is the buffer plan New allocates from: the scheme, the VC
	// count (0 selects 2), the grid hops H a flit traverses per link cycle
	// (0 selects 1; ~9 with SMART at 45 nm, §5.1) and the capacity
	// overrides. The 5-, 15- and RTT(d)-flit edge buffers and the 20-flit
	// central buffer are core.Buffers' sizes; the power model prices the
	// same plan.
	core.Buffers

	PacketFlits int   // flits per packet for synthetic traffic (paper: 6)
	InjQueueCap int   // NIC injection queue capacity in flits (paper: 20)
	Seed        int64 // RNG seed (injection processes, adaptive choices)

	// Traffic supplies injections; see Source.
	Traffic Source

	// Adaptive optionally chooses every packet's route from live network
	// state (UGAL etc.), walking the generic minimal table New compiles
	// for it.
	Adaptive AdaptivePolicy

	// EngineJobs is the number of spatial domains the per-cycle link and
	// router phases are stepped across, each on its own goroutine with a
	// per-cycle barrier. 0 lets New choose from the router count and
	// runtime.GOMAXPROCS (see domainCount), which keeps small networks and
	// single-P processes serial. n >= 1 forces n domains, capped at the
	// router count; tests and the benchmark's fork probe set it. Results
	// are byte-identical at every value: domains are contiguous router-index
	// ranges, each owns the wheels it schedules into, and the observable
	// ejections are taken in ascending domain order, which reproduces the
	// 1-domain ascending-router-index order exactly (see
	// docs/DETERMINISM.md). Because of that identity the count
	// is engine tuning, not simulation semantics — it is deliberately NOT
	// part of slimnoc's RunSpec or PointKey.
	EngineJobs int

	// CycleStep forces classic cycle-by-cycle stepping, disabling the event
	// calendar's dead-cycle skipping. The calendar is exact-equivalent —
	// results including EngineStats are byte-identical either way (pinned
	// by the differential harness in diff_test.go and the golden_idle
	// fixture) — so like EngineJobs this is engine tuning, not simulation
	// semantics, and is deliberately NOT part of slimnoc's RunSpec or
	// PointKey. The flag exists for differential testing and for measuring
	// the calendar's win.
	CycleStep bool

	// MemBudgetBytes caps the engine's estimated resident footprint (SoA
	// router state, links and wire state, NICs, and the compiled route
	// table). When nonzero, New refuses with a descriptive error before
	// performing the heavy allocations if the estimate exceeds the budget —
	// the guard that lets scale-* sweeps declare "this 100k-endpoint
	// instance needs ~8 GiB" instead of OOM-killing the host. 0 means no
	// cap. Like EngineJobs and CycleStep this never changes what a feasible
	// run computes, so it is NOT part of slimnoc's RunSpec or PointKey.
	MemBudgetBytes int64

	WarmupCycles  int64
	MeasureCycles int64
	DrainCycles   int64
}

// Source generates traffic. The contract, which both open-loop (Bernoulli,
// bursty, modulated) and closed-loop (request-reply, trace) workloads build
// on:
//
//   - Generate is called exactly once per cycle during the warmup and
//     measurement phases (never during drain) and emits packets via the
//     callback; class is an opaque tag the engine carries to OnDelivered
//     unchanged. Packets emitted from Generate during measurement are
//     latency-tracked.
//   - OnDelivered is invoked when a packet's tail flit is fully ejected at
//     its destination — in every phase, drain included — so sources observe
//     ejections: closed-loop sources return window credit here, and may emit
//     follow-on packets (replies) via the callback. Reply packets are never
//     latency-tracked, but their flits count toward the accepted
//     (Result.Throughput) and offered (Result.OfferedLoad) rates like any
//     other traffic, which is what makes self-throttling visible in the
//     accepted-vs-offered gap.
//   - Sources must be deterministic functions of the supplied RNG stream
//     (fixed seed => identical injection sequence) and must not allocate
//     once warm: the steady-state cycle loop is zero-allocation end to end,
//     sources included (pinned by TestSteadyStateZeroAllocsWorkloads). The
//     stream is the engine's one *rng.Stream, seeded from Config.Seed and
//     shared with the adaptive routing policy; it yields what math/rand's
//     generator yields for that seed, so the order in which a source draws
//     from it is part of the byte-identity contract.
//
// A source may additionally implement NextFirer to let the event calendar
// skip its dead cycles; sources that draw RNG every cycle must not (see
// NextFirer for the exact contract).
//
// Both emit callbacks are preallocated per Sim and safe to call any number
// of times, including zero.
type Source interface {
	Generate(t int64, rng *rng.Stream, emit func(src, dst, flits, class int))
	// OnDelivered is invoked when a packet is fully ejected; sources may
	// emit replies (e.g. read responses in trace-driven mode, or the
	// data-carrying replies of the request-reply closed loop).
	OnDelivered(t int64, src, dst, flits, class int, emit func(src, dst, flits, class int))
}

// NextFirer is the optional Source extension consulted by the event
// calendar (see calendar.go). NextFire(t) returns the earliest cycle > t at
// which the source's Generate call can be anything but a no-op; returning
// math.MaxInt64 means "never again". The contract is strict because the
// calendar uses the hint to NOT call Generate for the skipped cycles:
// for every cycle u in (t, NextFire(t)), Generate(u, ...) must emit nothing
// AND draw zero values from the RNG — otherwise skipping would fork the RNG
// stream and break byte-identical equivalence with cycle-stepping. Sources
// that draw RNG every cycle (Bernoulli, OnOff, modulated processes — one
// decision per node per cycle, however cheaply rng.Stream.FirstBelow scans
// them) must simply not implement the interface; their dead time is
// recovered by the calendar's drain-phase and post-generation skipping
// instead.
type NextFirer interface {
	NextFire(t int64) int64
}

// AdaptivePolicy chooses a packet's route given live network state.
type AdaptivePolicy interface {
	// Choose appends the NextEject-terminated next-hop words of a route
	// from srcRouter to dstRouter to next, the packet's recycled buffer,
	// and returns it.
	Choose(s *Sim, rng *rng.Stream, srcRouter, dstRouter int, next []uint32) []uint32
}

// Defaults match the paper's evaluation setup (§5.1).
func (c *Config) setDefaults() {
	if c.VCs == 0 {
		c.VCs = 2
	}
	if c.PacketFlits == 0 {
		c.PacketFlits = 6
	}
	if c.InjQueueCap == 0 {
		c.InjQueueCap = 20
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 5000
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 20000
	}
	if c.DrainCycles == 0 {
		c.DrainCycles = 20000
	}
}

// packet is one in-flight packet. Packets are recycled through a freelist
// once their tail flit ejects, so every field is (re)initialised on
// allocation.
type packet struct {
	id       int64
	src, dst int // nodes
	// next is the per-hop next-hop word sequence (routing.NextWord encoding,
	// NextEject-terminated, one entry per router on the path, so the hop count
	// is len(next)-1) — all the engine reads of a route once the packet is
	// queued. The packet owns it and keeps its capacity across freelist
	// recycles. Flits copy next[hop] at injection and on every send, so the
	// arbitration loop never touches the packet.
	next  []uint32
	flits int
	class int

	genTime int64
	tracked bool
	// flitsMoved counts flits moved into the source NIC's injection queue.
	flitsMoved int
	// qnext links the packet into its source NIC's packet list (see nic).
	qnext *packet
}

// flit references its packet and position. next carries the precomputed
// next-hop word (routing.NextWord: output port in bits 16..23, port*vcs+vc
// slot offset in bits 0..15, or nextEject at the final hop) so switch
// allocation never touches the packet's route arrays: it is copied from
// pkt.next once per hop — at injection and on every sendFlit — and the
// arbitration fast path arbitrates on the word alone.
// The struct is deliberately 16 bytes (idx/hop are uint16, bounded by New's
// maxPacketFlits and the 255-router-radix path-length cap): flits are copied
// on every queue push/pop along their life — arrival wheel, input buffer,
// ejection wheel — so their width is hot-loop memory bandwidth.
type flit struct {
	pkt  *packet
	idx  uint16 // 0 = head; pkt.flits-1 = tail
	hop  uint16 // hop index: the link path[hop] -> path[hop+1] it travels next
	next uint32
}

// nextEject marks a flit whose current hop is the last: its router visit is
// an ejection, not a traversal. nextNone is the Sim.injNext idle sentinel:
// the injection queue holds no flit. Valid encodings never collide with
// either (ports are capped at 255 and VCs at 63, so a real word is at most
// 0x00fe3efe).
const (
	nextEject = routing.NextEject
	nextNone  = routing.NextEject - 1
)

//sim:hot
func (f flit) head() bool { return f.idx == 0 }

//sim:hot
func (f flit) tail() bool { return int(f.idx) == f.pkt.flits-1 }

// arrival is a flit in flight on a wire. The wheel bucket it rides is the
// cycle it lands in input VC vc at the link's receiving port.
type arrival struct {
	f    flit
	link int32
	vc   int32
}

// link is a directed wire between routers. Its flits are not stored here:
// each rides an arrival wheel (domain.out) to the cycle it lands. In elastic
// modes the pipeline registers themselves store flits (per-VC,
// ElastiStore-style independent handshakes): a flit that lands on a full
// input latch waits in its lane's stall FIFO (Sim.stall).
type link struct {
	from, to int // routers
	toPort   int // input port index at the destination router
	latency  int64
	pending  int // flits on the wire or stalled at its end (active-link signal)
	// sendVB is the sender-side per-VC base index into Sim.space: the link
	// occupies space[sendVB+vc] slots, returned as its flits land (elastic
	// schemes; edge buffers return space through the credit wheel instead).
	sendVB int32
	// recvVB is the receiver-side per-VC base index into the input arrays:
	// the link delivers into input slot recvVB+vc.
	recvVB int32
}

// creditEvent returns a credit to (router, port, vc); its due cycle is the
// timing-wheel bucket it is scheduled into.
type creditEvent struct {
	router   int32
	port, vc int32
}

// cbPacket is a packet buffered at a central-buffer router on its way to
// one output VC (§4.1). The buffer reserved all of the packet's flits when
// its head arrived: expected of them are still to be written, stored are in
// the buffer. A packet's flits stream through in order, so the stored ones
// are consecutive, the front one being flit flits-expected-stored, and all
// sit at hop hop: counts are all the record keeps. Records queue per output
// VC through qnext and recycle through the domain's freelist once their
// tail drains.
type cbPacket struct {
	pkt              *packet
	qnext            *cbPacket
	stored, expected int32
	hop              uint16
}

// cbBypass is the Sim.cbIn mark of a packet on the central-buffer router's
// bypass path; it is never queued.
var cbBypass = &cbPacket{}

// cbQueue is one output VC's FIFO of buffered packets, linked through
// cbPacket.qnext (tail is meaningful only while head != nil).
type cbQueue struct {
	head, tail *cbPacket
}

// nic is one node's network interface: the packets it has still to inject,
// in order, linked through packet.qnext from front to last (last is valid
// only while front != nil). Flits enter the injection queue packet by
// packet, so the queue is a window over the list: injLen flits from flit
// injIdx of front on, through the moved flits of the packets behind it up
// to src, the first packet with unmoved flits (nil if none). A packet
// leaves the list as its tail leaves the queue, before it can eject and be
// recycled.
type nic struct {
	front, src, last *packet
	injLen           int32
	injIdx           uint16
}

// Sim is a runnable simulation instance.
//
// Router state lives in a struct-of-arrays layout: instead of an array of
// per-router structs of slices, every field is one flat slice over the whole
// network, indexed [r*stride+port] for per-port state and
// [(r*stride+port)*vcs+vc] for per-VC state (stride = the network's maximum
// router radix). The saturated sweep over all routers then walks contiguous
// memory instead of chasing per-router pointers.
type Sim struct {
	cfg   Config
	net   *topo.Network
	rng   *rng.Stream
	now   int64
	links []link
	nics  []nic
	table *routing.RouteTable // static routes, or the minimal table adaptive policies walk

	// Per-lane wire state, [link*vcs+vc]. laneLast is the latest arrival
	// cycle scheduled on the lane: a flit never lands before the one sent
	// ahead of it (a CBR bypass flit, 2 cycles, could otherwise overtake a
	// buffered one, 4 cycles). stall is the lane's FIFO, in stallBuf, of the
	// flits that landed on a full input latch or behind stalled flits. Its
	// capacity is the lane's latency+1 pipeline slots: the sender's space
	// word starts there and a slot returns only at deliver, so the flits on
	// the wire and stalled never exceed it. Both are nil under edge buffers,
	// whose credits guarantee room on arrival.
	laneLast []int64
	stall    []fifo
	stallBuf []flit

	// SoA router state. Geometry (immutable after New):
	stride  int // max router radix; per-port index stride
	vcs     int // cfg.VCs, hoisted
	scheme  core.Scheme
	kp      []int32 // [r] network port count
	outLink []int32 // [r*stride+pi] link index of output pi
	inLink  []int32 // [r*stride+pi] link arriving at input pi
	revPort []int32 // [r*stride+pi] our port index at the upstream router
	inCap   []int32 // [(r*stride+pi)*vcs+vc] input buffer capacity
	inOff   []int32 // [(r*stride+pi)*vcs+vc] where the buffer's tail starts in inBuf
	inBuf   []flit  // every input buffer's tail, inCap-1 flits each (dead beyond inLen-1)
	// Mutable per-VC state (initial values written by reset, like every
	// other mutable field below). An input buffer is its front flit in the
	// dense inFront array, so the switch-allocation scan never reaches into
	// the slab (a failed arbitration probe, the common case at saturation,
	// costs two contiguous loads), and the inLen-1 flits behind it in inBuf
	// from inOff+inHead on. Maintained by the only two input buffer
	// mutators, deliver (push) and popInput (pop).
	inHead   []int32 // [(r*stride+pi)*vcs+vc]
	inLen    []int32 // [(r*stride+pi)*vcs+vc]
	inFront  []flit  // [(r*stride+pi)*vcs+vc] valid when inLen > 0
	outOwner []int64 // [(r*stride+pi)*vcs+vc] owning packet id, or -1
	// occIn is the per-router input-occupancy bitmask: bit pi*vcs+vc of
	// router r's occW words is set iff input slot (pi, vc) holds at least one
	// flit. The arbitration walk starts at the cycle's rotating port and
	// visits only the set bits (bits.TrailingZeros64), which are exactly the
	// non-empty slots in rotated port-by-port order. A router's words are its
	// own, so no word is shared across domains. Maintained by deliver (set on
	// 0->non-empty) and popInput (clear on ->empty).
	occIn []uint64 // [r*occW+w]
	occW  int      // ceil(stride*vcs/64): occupancy words per router
	// space is the per-(port,vc) output readiness word: how many more flits
	// this output can accept right now. For edge buffers it is the classic
	// credit count (returned through the credit wheel); for elastic schemes
	// it is the link pipeline's free slots (latency stages + 1 slave latch,
	// returned when a flit lands at the receiver). outputReady is therefore
	// one compare, with the scheme branch and the pointer chase into the
	// link struct both gone from the arbitration inner loop.
	space []int32 // [(r*stride+pi)*vcs+vc]
	// Central-buffer state (core.CBR only): each output VC's queue of
	// buffered packets, and each input VC's decision for the packet at its
	// front (§4.1), nil until its head decides. Wormhole order puts one
	// packet at a time at an input's front, so the head sets the decision
	// and the tail's pop clears it.
	cbq    []cbQueue   // [(r*stride+pi)*vcs+vc] output VCs
	cbIn   []*cbPacket // [(r*stride+pi)*vcs+vc] input VCs
	cbFree []int32     // [r] central-buffer slots free
	work   []int32     // [r] flits resident at the router (domain.busy signal)
	// Per-cycle ejection scratch, epoch-marked: a slot is "used this cycle"
	// iff its entry equals the current cycle number, so there is nothing to
	// clear. (Output-port conflicts use the per-domain outMask bitmask
	// instead — see domain.outMask.)
	ejUsedAt []int64 // [node] per-node ejection port budget

	// Domain decomposition (see domain.go). doms always has >= 1 entry;
	// the serial engine is the 1-domain instance.
	doms  []domain
	domOf []int32 // [r] owning domain index
	par   *parRunner

	// Injection is serial and visits only NICs that can move a flit. After
	// stepInject every NIC has no unmoved flits (src == nil) or a full
	// injection queue, so one needs a visit only after enqueuePacket, or
	// after popInj frees room while packets wait: it then goes on its
	// domain's ready list (domain.ready), once per cycle (nicReady).
	// nicBacklog counts the NICs with src != nil.
	nicReady   []bool // [node]
	nicBacklog int
	// injCap is every NIC's injection queue capacity. injNext holds each
	// queue's front next-hop word (nextNone when empty): the per-router
	// injection scan probes one dense uint32 per node and only touches the
	// NIC when a flit can actually move.
	injCap  int32
	injNext []uint32 // [node]

	// Event calendar (calendar.go): when true (the default), the stepping
	// loop consults skipAhead after each cycle and jumps the clock over
	// provably dead cycles. nextFire is the traffic source's NextFirer view,
	// nil when the source cannot declare its dead cycles.
	calendar bool
	nextFire NextFirer

	// Packet freelist (allocated and recycled in serial phases; the
	// central-buffer freelists are per domain).
	pktPool []*packet

	// Persistent emit callbacks so the hot loop creates no closures.
	genEmit   func(src, dst, flits, class int)
	replyEmit func(src, dst, flits, class int)

	nextPktID int64

	// Stats.
	Result        Result
	lat           latHist // tracked packets' latencies
	genMeasured   int64   // tracked packets generated
	doneMeasured  int64   // tracked packets delivered
	flitsEjected  int64   // during measurement window
	flitsInjected int64
	inFlightFlits int64
	totalHops     int64
	hopPackets    int64
	lastEject     int64 // cycle of the most recent ejection (deadlock watchdog)

	eng engineCounters
}

// engineCounters accumulates EngineStats.
type engineCounters struct {
	cycles        int64
	pktAllocs     int64
	pktReuses     int64
	routerSum     int64
	routerPeak    int
	linkSum       int64
	linkPeak      int
	nicSum        int64
	nicPeak       int
	cyclesSkipped int64
	calendarPeak  int
	// Timing-wheel depth peaks, sampled at the end of every stepped cycle:
	// the wheels are taken only before the router phase and scheduled only
	// in it, so that is when they are deepest.
	creditPeak int
	ejectPeak  int
}

// EngineStats reports engine-internal telemetry: freelist behaviour (a
// steady-state run reuses packets instead of allocating), active-set
// occupancy (how much of the topology each cycle actually touches), and
// timing-wheel depth. All values are deterministic for a fixed seed.
type EngineStats struct {
	Cycles int64 `json:"cycles"`
	// PacketAllocs counts freelist misses (new packet allocations);
	// PacketReuses counts recycled packets.
	PacketAllocs int64 `json:"packet_allocs"`
	PacketReuses int64 `json:"packet_reuses"`
	// Occupancy, sampled at the end of every cycle: routers holding flits,
	// links carrying flits (on the wire or stalled at its end), and NICs
	// with packets queued.
	AvgActiveRouters  float64 `json:"avg_active_routers"`
	PeakActiveRouters int     `json:"peak_active_routers"`
	AvgActiveLinks    float64 `json:"avg_active_links"`
	PeakActiveLinks   int     `json:"peak_active_links"`
	AvgActiveNICs     float64 `json:"avg_active_nics"`
	PeakActiveNICs    int     `json:"peak_active_nics"`
	// Timing-wheel depth peaks (pending events).
	PeakCreditEvents int `json:"peak_credit_events"`
	PeakEjectEvents  int `json:"peak_eject_events"`
	// CyclesSkipped counts the dead cycles the event calendar jumped over
	// (a subset of Cycles, which counts simulated time either way); it is
	// zero under Config.CycleStep and zero at saturation, where the active
	// sets never empty. CalendarPeak is the largest total event backlog
	// (credit + ejection wheel entries plus link-resident flits) observed at
	// a skip decision. These two fields are the only EngineStats that
	// legitimately differ between calendar and cycle-stepped runs of the
	// same spec.
	CyclesSkipped int64 `json:"cycles_skipped"`
	CalendarPeak  int   `json:"calendar_peak"`
}

// EngineStats returns the engine telemetry accumulated so far.
func (s *Sim) EngineStats() EngineStats {
	st := EngineStats{
		Cycles:            s.eng.cycles,
		PacketAllocs:      s.eng.pktAllocs,
		PacketReuses:      s.eng.pktReuses,
		PeakActiveRouters: s.eng.routerPeak,
		PeakActiveLinks:   s.eng.linkPeak,
		PeakActiveNICs:    s.eng.nicPeak,
		PeakCreditEvents:  s.eng.creditPeak,
		PeakEjectEvents:   s.eng.ejectPeak,
		CyclesSkipped:     s.eng.cyclesSkipped,
		CalendarPeak:      s.eng.calendarPeak,
	}
	if s.eng.cycles > 0 {
		c := float64(s.eng.cycles)
		st.AvgActiveRouters = float64(s.eng.routerSum) / c
		st.AvgActiveLinks = float64(s.eng.linkSum) / c
		st.AvgActiveNICs = float64(s.eng.nicSum) / c
	}
	return st
}

// Result summarises one run. Saturation is observable two ways: the
// Saturated flag (tracked packets left undelivered), and the accepted-vs-
// offered gap — Throughput counts the flits the network actually ejected
// per node-cycle while OfferedLoad counts the flits sources injected, so
// Throughput plateauing below OfferedLoad is the saturation signature the
// slimnoc SaturationSearch campaign mode keys on alongside mean latency.
type Result struct {
	AvgLatency  float64 // cycles, tracked packets
	P99Latency  float64
	Throughput  float64 // accepted flits/node/cycle during measurement
	OfferedLoad float64 // generated flits/node/cycle during measurement
	Delivered   int64
	Generated   int64
	Saturated   bool // <95% of tracked packets delivered by the end
	AvgHops     float64
	Cycles      int64
	// DeadlockSuspected is set when flits remained in flight with no
	// ejection progress through the second half of the drain phase — the
	// watchdog for routing/flow-control bugs (a correctly configured
	// network never triggers it).
	DeadlockSuspected bool
}

// New builds a simulation from the config.
func New(cfg Config) (*Sim, error) {
	cfg.setDefaults()
	if cfg.Net == nil || cfg.Traffic == nil {
		return nil, fmt.Errorf("sim: Net and Traffic are required")
	}
	if cfg.Table == nil && cfg.Adaptive == nil {
		return nil, fmt.Errorf("sim: one of Table or Adaptive is required")
	}
	if cfg.Net.NodeMap != nil {
		return nil, fmt.Errorf("sim: indirect networks (node maps) are not simulated")
	}
	if cfg.VCs < 1 || cfg.VCs > maxVCs {
		// The per-hop VC assignment is a uint8 and central-buffer queue
		// keys historically packed the VC into 6 bits; beyond 63 VCs keys
		// would silently collide.
		return nil, fmt.Errorf("sim: VCs = %d out of range [1, %d]", cfg.VCs, maxVCs)
	}
	if cfg.InjQueueCap < 1 || cfg.InjQueueCap > math.MaxInt32 {
		return nil, fmt.Errorf("sim: InjQueueCap = %d out of range [1, %d] (0 selects the default)", cfg.InjQueueCap, math.MaxInt32)
	}
	if cfg.PacketFlits < 1 || cfg.PacketFlits > maxPacketFlits {
		// Flit indices are uint16; a negative size would queue packets
		// that never inject.
		return nil, fmt.Errorf("sim: PacketFlits = %d out of range [1, %d] (0 selects the default)", cfg.PacketFlits, maxPacketFlits)
	}
	s := &Sim{
		cfg:    cfg,
		net:    cfg.Net,
		vcs:    cfg.VCs,
		scheme: cfg.Scheme,
	}
	nr := s.net.Nr
	// SoA geometry: one flat slice per field, stride = maximum radix.
	s.kp = make([]int32, nr)
	for r := 0; r < nr; r++ {
		kp := len(s.net.Adj[r])
		s.kp[r] = int32(kp)
		if kp > s.stride {
			s.stride = kp
		}
	}
	if s.stride > 255 {
		// Per-hop output ports are uint8 (packet.ports); no supported
		// topology has a radix anywhere near this.
		return nil, fmt.Errorf("sim: router radix %d exceeds the 255-port limit", s.stride)
	}
	if cfg.MemBudgetBytes > 0 {
		if est := cfg.memEstimate(s.stride); est > cfg.MemBudgetBytes {
			return nil, fmt.Errorf(
				"sim: estimated engine footprint %.1f MiB for %d routers / %d nodes exceeds MemBudgetBytes = %.1f MiB; raise the budget or pick a smaller instance",
				float64(est)/(1<<20), nr, s.net.N(), float64(cfg.MemBudgetBytes)/(1<<20))
		}
	}
	// From here New only allocates and wires what never changes during a
	// run; every mutable field gets its initial value in reset, below.
	np := nr * s.stride
	nv := np * cfg.VCs
	s.outLink = make([]int32, np)
	s.inLink = make([]int32, np)
	s.revPort = make([]int32, np)
	s.inCap = make([]int32, nv)
	s.inOff = make([]int32, nv)
	s.inHead = make([]int32, nv)
	s.inLen = make([]int32, nv)
	s.inFront = make([]flit, nv)
	s.occW = max(1, (s.stride*s.vcs+63)/64)
	s.occIn = make([]uint64, nr*s.occW)
	s.outOwner = make([]int64, nv)
	s.space = make([]int32, nv)
	if cfg.Scheme == core.CBR {
		s.cbq = make([]cbQueue, nv)
		s.cbIn = make([]*cbPacket, nv)
	}
	s.cbFree = make([]int32, nr)
	s.work = make([]int32, nr)
	s.ejUsedAt = make([]int64, s.net.N())
	// Build links and wire them into the flat port arrays. One link per
	// directed edge; per-lane wire state is one slab each ([link*vcs+vc]).
	edges := 0
	for _, kp := range s.kp {
		edges += int(kp)
	}
	s.links = make([]link, 0, edges)
	s.laneLast = make([]int64, edges*cfg.VCs)
	if !cfg.Scheme.EdgeBuffers() {
		s.stall = make([]fifo, edges*cfg.VCs)
	}
	maxLat := int64(1)
	slab := 0      // input buffer tail slab size so far
	stallSlab := 0 // stall FIFO slab size so far
	for r := 0; r < nr; r++ {
		adj := s.net.Adj[r]
		for pi, nb := range adj {
			// Input port pi at r receives from nb; find r's position in
			// nb's adjacency to wire the reverse direction.
			dist := core.WireLength(s.net, r, nb)
			lat := int64(cfg.LinkCycles(dist))
			maxLat = max(maxLat, lat)
			lid := len(s.links)
			pos := portIndex(s.net.Adj[nb], r)
			vb := (r*s.stride + pi) * cfg.VCs
			s.links = append(s.links, link{
				from: nb, to: r, toPort: pi, latency: lat,
				sendVB: int32((nb*s.stride + pos) * cfg.VCs),
				recvVB: int32(vb),
			})
			s.outLink[nb*s.stride+pos] = int32(lid)
			s.inLink[r*s.stride+pi] = int32(lid)
			s.revPort[r*s.stride+pi] = int32(pos)
			capFlits, latches := cfg.InputCap(dist), cfg.LatchCap(dist)
			for v := 0; v < cfg.VCs; v++ {
				s.inCap[vb+v] = int32(capFlits)
				s.inOff[vb+v] = int32(slab)
				slab += capFlits - 1
				if s.stall != nil {
					s.stall[lid*cfg.VCs+v] = fifo{off: int32(stallSlab), size: int32(latches)}
					stallSlab += latches
				}
			}
		}
	}
	if slab > math.MaxInt32 || stallSlab > math.MaxInt32 {
		return nil, fmt.Errorf("sim: buffer capacities need more than %d flits of input or link storage", math.MaxInt32)
	}
	s.inBuf = make([]flit, slab)
	if s.stall != nil {
		s.stallBuf = make([]flit, stallSlab)
	}
	// NICs.
	s.nics = make([]nic, s.net.N())
	s.injNext = make([]uint32, s.net.N())
	s.injCap = int32(cfg.InjQueueCap)
	// The route table: adaptive policies walk the generic minimal one
	// (its compile error is also how a disconnected network is refused),
	// static runs read the supplied one.
	if cfg.Adaptive != nil {
		tab, err := routing.CompileCompact(s.net, cfg.VCs)
		if err != nil {
			return nil, err
		}
		s.table = tab
	} else {
		// A mismatched table would route over links this network does not
		// have (or VCs the buffers do not): it must walk this very
		// adjacency, not one of the same size.
		if cfg.Table.Nr() != nr || cfg.Table.NumVCs() != cfg.VCs {
			return nil, fmt.Errorf("sim: route table compiled for %d routers / %d VCs, network has %d routers / %d VCs",
				cfg.Table.Nr(), cfg.Table.NumVCs(), nr, cfg.VCs)
		}
		if err := cfg.Table.CompilePorts(s.net.Adj); err != nil {
			return nil, fmt.Errorf("sim: route table was compiled for another network than %s: %w", s.net.Name, err)
		}
		s.table = cfg.Table
	}
	// Domain decomposition: contiguous router-index ranges (see domain.go).
	s.buildDomains(cfg.domains(), maxLat)
	// Event calendar: on unless CycleStep forces classic stepping. The
	// source's next-fire hint is optional (see NextFirer).
	s.calendar = !cfg.CycleStep
	if nf, ok := cfg.Traffic.(NextFirer); ok {
		s.nextFire = nf
	}
	// Engine machinery.
	s.nicReady = make([]bool, s.net.N())
	s.genEmit = func(src, dst, flits, class int) {
		s.enqueuePacket(src, dst, flits, class, s.now >= s.cfg.WarmupCycles)
	}
	s.replyEmit = func(src, dst, flits, class int) {
		s.enqueuePacket(src, dst, flits, class, false)
	}
	s.reset()
	return s, nil
}

// reset puts every mutable field into the state a run starts from. It is the
// only place those initial values are written: New allocates and wires the
// geometry and then calls it, and a reusable episode engine (estimate.go)
// calls it again before every episode, so a Sim that has been reset is
// indistinguishable from one New just returned (pinned field by field by
// TestResetEqualsFresh — a field added to Sim and forgotten here fails it).
//
// The input and stall slabs New sized are not cleared: emptying a queue is
// zeroing its head and length, and nothing reads a slab outside a queue's
// live window (clearing them made an estimate episode on a 1296-node
// network half again as slow). Scratch slices and the latency histogram
// are truncated, so a long-lived engine's footprint stays at its
// construction size plus its longest latency. The packet and
// central-buffer freelists survive by design (a recycled packet is fully
// reinitialised when allocated).
// Domain workers must not be running.
func (s *Sim) reset() {
	cfg := &s.cfg
	if s.rng == nil {
		s.rng = rng.New(cfg.Seed + 1)
	} else {
		s.rng.Seed(cfg.Seed + 1)
	}
	s.now = 0
	// Router state: empty buffers, no wormhole owners, full readiness.
	// Edge-buffer outputs start with the peer input buffer's full credit
	// count, elastic outputs with the lane's pipeline slots (its stall
	// FIFO's capacity, the plan's LatchCap).
	clear(s.inHead)
	clear(s.inLen)
	clear(s.inFront)
	clear(s.occIn)
	clear(s.cbq)
	clear(s.cbIn)
	for r := range s.cbFree {
		s.cbFree[r] = int32(cfg.CentralCap())
	}
	clear(s.work)
	for i := range s.ejUsedAt {
		s.ejUsedAt[i] = -1
	}
	for r := range s.kp {
		for pi := 0; pi < int(s.kp[r]); pi++ {
			vb := (r*s.stride + pi) * s.vcs
			lid := int(s.outLink[r*s.stride+pi])
			l := &s.links[lid]
			peer := (l.to*s.stride + l.toPort) * s.vcs
			for v := 0; v < s.vcs; v++ {
				s.outOwner[vb+v] = -1
				if s.stall == nil {
					s.space[vb+v] = s.inCap[peer+v]
				} else {
					s.space[vb+v] = s.stall[lid*s.vcs+v].size
				}
			}
		}
	}
	// Links: nothing on any wire (the arrival wheels empty with their
	// domains, below).
	clear(s.laneLast)
	for i := range s.stall {
		s.stall[i].head, s.stall[i].n = 0, 0
	}
	for li := range s.links {
		s.links[li].pending = 0
	}
	// NICs: no packets, empty injection queues.
	clear(s.nics)
	for v := range s.injNext {
		s.injNext[v] = nextNone
	}
	clear(s.nicReady)
	s.nicBacklog = 0
	// Domains: empty busy sets, lists and wheels, zero counters.
	for di := range s.doms {
		s.doms[di].reset()
	}
	if s.par != nil {
		s.par.reset()
	}
	// Statistics.
	s.nextPktID = 0
	s.Result = Result{}
	s.lat = latHist{counts: s.lat.counts[:0]}
	s.genMeasured, s.doneMeasured = 0, 0
	s.flitsEjected, s.flitsInjected, s.inFlightFlits = 0, 0, 0
	s.totalHops, s.hopPackets = 0, 0
	s.lastEject = 0
	s.eng = engineCounters{}
}

func portIndex(adj []int, target int) int {
	for i, v := range adj {
		if v == target {
			return i
		}
	}
	panic("sim: adjacency not symmetric")
}

// InFlight returns the number of flits currently inside the network,
// injection queues, or links — zero after a fully drained run. Exposed for
// conservation checks.
func (s *Sim) InFlight() int64 { return s.inFlightFlits }

// CBPathStats returns the number of flits that took the central-buffer
// router's bypass path versus its buffered path (meaningful only for
// Scheme == core.CBR).
func (s *Sim) CBPathStats() (bypass, buffered int64) {
	for di := range s.doms {
		bypass += s.doms[di].bypass
		buffered += s.doms[di].buffered
	}
	return bypass, buffered
}

// ForwardedFlits returns the number of flits forwarded out of an input
// stage at an intermediate router (injections and ejections excluded). For
// the central-buffer scheme this always equals bypass+buffered — the
// conservation invariant pinned by TestFlitConservation.
func (s *Sim) ForwardedFlits() (n int64) {
	for di := range s.doms {
		n += s.doms[di].forwarded
	}
	return n
}

// Progress is the periodic telemetry snapshot emitted during a run.
type Progress struct {
	Cycle       int64
	TotalCycles int64
	Generated   int64 // tracked packets generated so far
	Delivered   int64 // tracked packets delivered so far
	InFlight    int64 // flits currently in the network
}

// Run executes the configured warmup + measurement + drain and returns the
// result.
func (s *Sim) Run() Result {
	res, _ := s.RunContext(context.Background(), 0, nil)
	return res
}

// RunContext is Run with cooperative cancellation and progress streaming.
// The context is polled every `every` cycles (default 1024); onProgress,
// when non-nil, is invoked on the same cadence. On cancellation the
// simulation stops at the next poll point and returns the statistics
// accumulated so far together with an error wrapping ctx.Err(), so callers
// can distinguish a partial result from a completed one.
func (s *Sim) RunContext(ctx context.Context, every int64, onProgress func(Progress)) (Result, error) {
	cfg := &s.cfg
	total := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles
	if every <= 0 {
		every = 1024
	}
	s.startWorkers()
	defer s.stopWorkers()
	var runErr error
	for s.now = 0; s.now < total; s.now++ {
		if s.now%every == 0 {
			if ctx != nil && ctx.Err() != nil {
				runErr = fmt.Errorf("sim: run cancelled at cycle %d of %d: %w", s.now, total, ctx.Err())
				break
			}
			if onProgress != nil {
				onProgress(Progress{
					Cycle:       s.now,
					TotalCycles: total,
					Generated:   s.genMeasured,
					Delivered:   s.doneMeasured,
					InFlight:    s.inFlightFlits,
				})
			}
		}
		s.step()
		if s.calendar {
			// Jump over provably dead cycles, but never past the next poll
			// boundary: cancellation latency and progress cadence stay
			// exactly what cycle-stepping delivers (see calendar.go).
			limit := (s.now/every + 1) * every
			if limit > total {
				limit = total
			}
			s.skipAhead(limit)
		}
	}
	stop := s.now
	// Account for ejections still completing their final router traversal.
	s.now = stop + routerDelayDirect
	s.flushAllEjections(stop)
	s.now = stop
	res := &s.Result
	res.Cycles = stop
	res.DeadlockSuspected = runErr == nil && s.inFlightFlits > 0 && s.lastEject < total-s.cfg.DrainCycles/2
	res.Generated = s.genMeasured
	res.Delivered = s.doneMeasured
	if s.lat.n > 0 {
		res.AvgLatency = float64(s.lat.sum) / float64(s.lat.n)
		res.P99Latency = s.lat.quantile(0.99)
	}
	// A cancelled run normalises rates over the measurement cycles that
	// actually elapsed, and never reports saturation: undelivered packets
	// then mean the run was cut short, not that the network saturated.
	measured := stop - cfg.WarmupCycles
	if measured > cfg.MeasureCycles {
		measured = cfg.MeasureCycles
	}
	if measured > 0 {
		n := float64(s.net.N())
		res.Throughput = float64(s.flitsEjected) / (n * float64(measured))
		res.OfferedLoad = float64(s.flitsInjected) / (n * float64(measured))
	}
	res.Saturated = runErr == nil && s.genMeasured > 0 && float64(s.doneMeasured) < 0.95*float64(s.genMeasured)
	if s.hopPackets > 0 {
		res.AvgHops = float64(s.totalHops) / float64(s.hopPackets)
	}
	return *res, runErr
}

// step advances the simulation by one cycle. The phase order matches the
// original full-scan engine exactly; only the iteration strategy changed.
// The link and router phases run per domain — in parallel when workers are
// live, inline in ascending domain order otherwise (see domain.go).
//
//sim:hot
func (s *Sim) step() {
	s.stepGenerate()
	s.stepCredits()
	s.flushEjections(s.now)
	if s.par != nil && s.par.started {
		s.parPhase(cmdLinks)
		s.parPhase(cmdRouters)
	} else {
		for di := range s.doms {
			s.stepLinksDomain(&s.doms[di])
		}
		for di := range s.doms {
			s.stepRoutersDomain(&s.doms[di])
		}
	}
	s.stepInject()
	// Occupancy and wheel-depth telemetry, sampled at end of cycle.
	s.eng.cycles++
	ar, al, credits, ejects := 0, 0, 0, 0
	for di := range s.doms {
		d := &s.doms[di]
		ar += d.nBusy
		al += d.linksLive
		credits += d.credit.pending
		ejects += d.ejection.pending
	}
	s.eng.creditPeak = max(s.eng.creditPeak, credits)
	s.eng.ejectPeak = max(s.eng.ejectPeak, ejects)
	s.eng.routerSum += int64(ar)
	s.eng.linkSum += int64(al)
	s.eng.nicSum += int64(s.nicBacklog)
	s.eng.routerPeak = max(s.eng.routerPeak, ar)
	s.eng.linkPeak = max(s.eng.linkPeak, al)
	s.eng.nicPeak = max(s.eng.nicPeak, s.nicBacklog)
}

// latHist is an exact latency histogram: counts[l] packets took l cycles, n
// in all, sum cycles in total. It grows to the longest latency, not to the
// packet count, and reset keeps its capacity.
type latHist struct {
	counts []int32
	n, sum int64
}

//sim:hot
func (h *latHist) add(l int64) {
	for int64(len(h.counts)) <= l {
		h.counts = append(h.counts, 0)
	}
	h.counts[l]++
	h.n++
	h.sum += l
}

// quantile is the nearest-rank p-quantile: the floor(p*(n-1))-th smallest
// latency, counting from 0 (n > 0).
func (h *latHist) quantile(p float64) float64 {
	idx := int64(p * float64(h.n-1))
	for l, c := range h.counts {
		if idx -= int64(c); idx < 0 {
			return float64(l)
		}
	}
	panic("sim: latency quantile past the histogram")
}

// stepGenerate invokes the traffic source and enqueues new packets on their
// NICs. Generation stops at the end of the measurement window so the drain
// phase empties the network; a non-zero InFlight after Run therefore
// indicates a deadlock or livelock.
//
//sim:hot
func (s *Sim) stepGenerate() {
	if s.now >= s.cfg.WarmupCycles+s.cfg.MeasureCycles {
		return
	}
	s.cfg.Traffic.Generate(s.now, s.rng, s.genEmit)
}

// allocPacket takes a packet from the freelist (or allocates one) and
// assigns its ID.
//
//sim:hot
func (s *Sim) allocPacket() *packet {
	var p *packet
	if n := len(s.pktPool); n > 0 {
		p = s.pktPool[n-1]
		s.pktPool[n-1] = nil
		s.pktPool = s.pktPool[:n-1]
		s.eng.pktReuses++
	} else {
		//detlint:allow hotalloc freelist miss only; steady state recycles via freePacket (pinned by TestSteadyStateZeroAllocs)
		p = &packet{}
		s.eng.pktAllocs++
	}
	p.id = s.nextPktID
	s.nextPktID++
	p.flitsMoved = 0
	p.qnext = nil
	return p
}

// freePacket recycles a fully ejected packet; its buffers keep their
// capacity for reuse.
//
//sim:hot
func (s *Sim) freePacket(p *packet) {
	s.pktPool = append(s.pktPool, p)
}

//sim:hot
func (s *Sim) enqueuePacket(src, dst, flits, class int, tracked bool) {
	if flits <= 0 {
		flits = s.cfg.PacketFlits
	}
	if flits > maxPacketFlits {
		panic("sim: packet exceeds maxPacketFlits (flit indices are uint16)")
	}
	srcR := s.net.NodeRouter(src)
	dstR := s.net.NodeRouter(dst)
	p := s.allocPacket()
	p.src, p.dst = src, dst
	p.flits, p.class = flits, class
	p.genTime, p.tracked = s.now, tracked
	// Write the route into the packet-owned buffer: allocation-free once
	// the buffer has reached the longest route's length.
	if s.cfg.Adaptive != nil {
		p.next = s.cfg.Adaptive.Choose(s, s.rng, srcR, dstR, p.next[:0])
	} else {
		p.next = s.table.AppendNextWords(p.next[:0], srcR, dstR)
	}
	if len(p.next) > maxPacketFlits {
		panic("sim: route exceeds maxPacketFlits hops (flit hop indices are uint16)")
	}
	if tracked {
		s.genMeasured++
	}
	nc := &s.nics[src]
	if nc.front == nil {
		nc.front = p
	} else {
		nc.last.qnext = p
	}
	nc.last = p
	if nc.src == nil {
		nc.src = p
		s.nicBacklog++
	}
	s.nicWake(&s.doms[s.domOf[srcR]], src)
}

// nicWake puts a NIC with queued packets on its domain's ready list, once.
// Callers are the serial phases (enqueuePacket) and the NIC's own router's
// domain in the router phase (popInj), so the append is single-writer.
//
//sim:hot
//sim:domain
func (s *Sim) nicWake(d *domain, node int) {
	if !s.nicReady[node] {
		s.nicReady[node] = true
		d.ready = append(d.ready, int32(node))
	}
}

// stepCredits applies the credit returns due this cycle from every domain's
// wheel (edge buffers: each event restores one unit of output readiness at
// the upstream router, so the order of returns does not matter).
//
//sim:hot
func (s *Sim) stepCredits() {
	for di := range s.doms {
		for _, ev := range s.doms[di].credit.take(s.now) {
			s.space[(int(ev.router)*s.stride+int(ev.port))*s.vcs+int(ev.vc)]++
		}
	}
}

// routerGainsFlit accounts a flit arriving at router r of domain d and
// marks the router busy. Callers are either d's link phase or the serial
// injection phase, so the bit write is always single-writer.
//
//sim:hot
//sim:domain
func (s *Sim) routerGainsFlit(d *domain, r int) {
	if s.work[r] == 0 {
		i := r - int(d.rlo)
		d.busy[i>>6] |= 1 << uint(i&63)
		d.nBusy++
	}
	s.work[r]++
}

// stepInject moves flits of queued packets into NIC injection queues,
// visiting only the NICs on the domains' ready lists. Visit order is not
// observable: each NIC fills its own queue and wakes its own router, and the
// router phase visits routers in ascending order whatever order they woke
// in. Every visit ends with no unmoved flits or a full injection queue, so
// the lists empty completely.
//
//sim:hot
func (s *Sim) stepInject() {
	for di := range s.doms {
		d := &s.doms[di]
		for _, v := range d.ready {
			s.nicReady[v] = false
			s.injectNIC(d, int(v))
		}
		d.ready = d.ready[:0]
	}
}

// injectNIC moves the flits of one NIC's queued packets, from src on, into
// its injection queue while space lasts. d owns the NIC's router.
//
//sim:hot
func (s *Sim) injectNIC(d *domain, v int) {
	nc := &s.nics[v]
	r := s.net.NodeRouter(v)
	for p := nc.src; p != nil && nc.injLen < s.injCap; {
		s.flitCountInjected(p)
		if nc.injLen == 0 {
			// The flit lands in front of an empty queue, so p is front
			// and injIdx already names the flit (see popInj).
			s.injNext[v] = p.next[0]
		}
		nc.injLen++
		p.flitsMoved++
		s.routerGainsFlit(d, r)
		if p.flitsMoved == p.flits {
			p = p.qnext
			nc.src = p
		}
	}
	if nc.src == nil {
		s.nicBacklog-- // a NIC is only ever woken with unmoved flits
	}
}

//sim:hot
func (s *Sim) flitCountInjected(p *packet) {
	if s.now >= s.cfg.WarmupCycles && s.now < s.cfg.WarmupCycles+s.cfg.MeasureCycles {
		s.flitsInjected++
	}
	s.inFlightFlits++
}

// eject consumes a flit at its destination.
//
//sim:hot
func (s *Sim) eject(f flit) {
	p := f.pkt
	s.inFlightFlits--
	s.lastEject = s.now
	if s.now >= s.cfg.WarmupCycles && s.now < s.cfg.WarmupCycles+s.cfg.MeasureCycles {
		s.flitsEjected++
	}
	if f.tail() {
		if p.tracked {
			s.doneMeasured++
			s.lat.add(s.now - p.genTime)
			s.totalHops += int64(len(p.next) - 1)
			s.hopPackets++
		}
		s.cfg.Traffic.OnDelivered(s.now, p.src, p.dst, p.flits, p.class, s.replyEmit)
		s.freePacket(p)
	}
}
