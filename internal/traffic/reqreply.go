// The closed-loop request-reply source: each node keeps a bounded window of
// outstanding requests and issues a new one only when a reply returns, so
// the offered load self-throttles to whatever the network can deliver —
// the memory-traffic regime of the related crossbar-memory and PIM systems,
// and the workload that exercises the engine's ejection path hardest.

package traffic

import (
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Message classes carried by ReqReply packets, mirroring the trace package's
// read/reply convention.
const (
	// classRequest tags the short control packet a node issues while it has
	// window credit; its delivery triggers a reply.
	classRequest = 11
	// classReply tags the long data packet sent back to the requester; its
	// delivery returns one unit of window credit.
	classReply = 12
)

// ReqReply is a closed-loop source: every node keeps up to Window requests
// outstanding. Each cycle a node issues requests (short control packets of
// ReqFlits, destinations drawn from Pattern) until its window is full; when
// a request is delivered, the destination sends back a reply carrying the
// data-packet size (ReplyFlits), and the reply's delivery frees one window
// slot at the requester. There is no injection rate: throughput is set by
// round-trip latency and Window (the classic latency-bandwidth closed loop),
// so the source can never over-drive the network into open-loop divergence.
//
// Latency statistics track requests (emitted by Generate, so they follow the
// simulator's warmup/measure windows); replies are engine-level untracked
// traffic but their flits count toward accepted and offered throughput,
// exactly like the trace package's read replies.
type ReqReply struct {
	N int
	// Window is the per-node outstanding-request bound W (>= 1).
	Window int
	// ReqFlits is the request length (control packet, paper: 2 flits).
	ReqFlits int
	// ReplyFlits is the reply length (data packet, paper: 6 flits).
	ReplyFlits int
	// Pattern draws request destinations.
	Pattern Pattern

	// Requests and Replies count the packets emitted so far (telemetry).
	Requests, Replies int64

	outstanding []int // per-node in-flight request count
	totalOut    int   // sum of outstanding (next-fire signal)
}

var _ sim.Source = (*ReqReply)(nil)
var _ sim.NextFirer = (*ReqReply)(nil)

// Generate implements sim.Source: top every node's window up with fresh
// requests. On the first cycle this emits Window requests per node (the
// cold-start burst); afterwards it emits one request per reply received, the
// steady closed-loop state.
func (s *ReqReply) Generate(t int64, rng *rng.Stream, emit func(src, dst, flits, class int)) {
	if s.outstanding == nil {
		s.outstanding = make([]int, s.N)
	}
	for node := 0; node < s.N; node++ {
		for s.outstanding[node] < s.Window {
			emit(node, s.Pattern.Dest(rng, node), s.ReqFlits, classRequest)
			s.outstanding[node]++
			s.totalOut++
			s.Requests++
		}
	}
}

// NextFire implements sim.NextFirer. Once every node's window is full,
// Generate cannot emit (and draws zero RNG — the per-node loop bodies never
// run) until a reply returns credit, and credit only moves inside a stepped
// cycle — so the window-stalled state persists across any skipped range and
// the calendar may jump straight to the next engine event. With any window
// slot open the source fires next cycle.
func (s *ReqReply) NextFire(t int64) int64 {
	if s.outstanding != nil && s.totalOut >= s.N*s.Window {
		return math.MaxInt64 // stalled until a reply lands
	}
	return t + 1
}

// OnDelivered implements sim.Source: a delivered request triggers the reply
// (data-packet sized, back to the requester), and a delivered reply returns
// window credit to its destination — the original requester — so Generate
// issues a replacement next cycle.
func (s *ReqReply) OnDelivered(t int64, src, dst, flits, class int, emit func(src, dst, flits, class int)) {
	switch class {
	case classRequest:
		emit(dst, src, s.ReplyFlits, classReply)
		s.Replies++
	case classReply:
		if s.outstanding != nil && dst >= 0 && dst < len(s.outstanding) && s.outstanding[dst] > 0 {
			s.outstanding[dst]--
			s.totalOut--
		}
	}
}
