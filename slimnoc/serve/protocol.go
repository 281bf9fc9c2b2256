package serve

import (
	"fmt"

	"repro/slimnoc"
)

// protocolVersion is the JSON-line protocol generation this package speaks.
// A hello naming a different version is rejected; omitting the version
// selects the current one. Bump on any wire-incompatible change.
const protocolVersion = 1

// defaultFlitBytes is the payload a flit carries when converting byte
// counts to flit counts (16 B — a 128-bit link, the paper's §5.1 setup).
// Sessions may negotiate a different value in hello.
const defaultFlitBytes = 16

// Protocol verbs. One request object per line; the server answers every
// request with exactly one response line carrying the same op and id.
const (
	// opHello opens a session: protocol version check plus engine
	// negotiation (the RunSpec naming network, routing, VCs, buffering).
	opHello = "hello"
	// OpEstimate asks for the cycle-accurate latency of one transfer on an
	// otherwise idle network.
	OpEstimate = "estimate"
	// opBatch estimates N transfers in one engine episode: all injected at
	// cycle 0, contending like simultaneously issued DMAs.
	opBatch = "batch"
	// opOccupy schedules a transfer under the session's link-occupancy
	// windows: its start is pushed past the busy windows of every link on
	// its route, and its own window is then reserved — the uPIMulator-style
	// backpressure coupling.
	opOccupy = "occupy"
	// opWindow inspects (or resets) the session's occupancy state.
	opWindow = "window"
	// opStats reports the server's deterministic service counters.
	opStats = "stats"
	// opShutdown ends the session and stops the server.
	opShutdown = "shutdown"
)

// WireTransfer names one transfer in a request: size as either bytes
// (converted at the session's flit width) or flits (taking precedence).
type WireTransfer struct {
	Src   int   `json:"src"`
	Dst   int   `json:"dst"`
	Bytes int64 `json:"bytes,omitempty"`
	Flits int   `json:"flits,omitempty"`
}

// Request is one protocol request line. Op selects the verb; the other
// fields are read per-verb (see docs/SERVING.md for the full field matrix).
type Request struct {
	Op string `json:"op"`
	// ID is a client-chosen correlation tag echoed verbatim in the
	// response, enabling pipelined submission.
	ID int64 `json:"id,omitempty"`

	// Version is the protocol version the client speaks (hello; 0 = current).
	Version int `json:"version,omitempty"`
	// FlitBytes sets the session's byte-to-flit conversion width (hello;
	// 0 = defaultFlitBytes).
	FlitBytes int `json:"flit_bytes,omitempty"`
	// Spec names the engine: network, routing, VCs, buffering, SMART. The
	// traffic and sim sections are ignored (see slimnoc.EstimatorSpec).
	Spec *slimnoc.RunSpec `json:"spec,omitempty"`

	// Src/Dst are transfer endpoints (estimate, occupy; optional route
	// selector for window). Pointers so that node 0 survives omitempty.
	Src *int `json:"src,omitempty"`
	Dst *int `json:"dst,omitempty"`
	// Bytes/Flits size the transfer (estimate, occupy).
	Bytes int64 `json:"bytes,omitempty"`
	Flits int   `json:"flits,omitempty"`
	// Start is the earliest cycle the transfer may begin (occupy).
	Start int64 `json:"start,omitempty"`

	// Transfers is the batch payload (batch).
	Transfers []WireTransfer `json:"transfers,omitempty"`

	// Reset clears the session's occupancy windows (window).
	Reset bool `json:"reset,omitempty"`
}

// Grant is the occupy response payload: when the transfer was allowed to
// start, when it finishes, and how long backpressure delayed it.
type Grant struct {
	// Requested echoes the start cycle the client asked for.
	Requested int64 `json:"requested"`
	// Start is the granted start cycle: the first cycle at or after
	// Requested at which every link of the route is free.
	Start int64 `json:"start"`
	// Finish is Start plus the transfer's estimated latency; every link of
	// the route is reserved (busy) until then.
	Finish int64 `json:"finish"`
	// LatencyCycles is the transfer's isolated estimate.
	LatencyCycles int64 `json:"latency_cycles"`
	// Waited is Start - Requested: the backpressure penalty.
	Waited int64 `json:"waited"`
	// Hops is the route's router-path hop count.
	Hops int `json:"hops"`
}

// WindowInfo is the window response payload.
type WindowInfo struct {
	// Horizon is the latest busy-until cycle across all links (0 = idle).
	Horizon int64 `json:"horizon"`
	// BusyLinks counts links with an active occupancy window.
	BusyLinks int `json:"busy_links"`
	// FreeAt, present when the request named a route (src/dst), is the
	// earliest cycle a transfer on that route could start now.
	FreeAt *int64 `json:"free_at,omitempty"`
}

// Stats is the deterministic service-counter block: no wall-clock, no
// scheduling artifacts, so a scripted session always produces the same
// stats line (the protocol golden fixture relies on this).
type Stats struct {
	// Sessions counts sessions ever opened (hello accepted).
	Sessions int64 `json:"sessions"`
	// Requests counts protocol requests handled, hello and stats included.
	Requests int64 `json:"requests"`
	// Estimates counts transfers estimated: estimate requests, batch
	// items, and the internal estimate behind each occupy.
	Estimates int64 `json:"estimates"`
	// Simulated counts engine episodes actually run; a fully cache-served
	// session reports 0.
	Simulated int64 `json:"simulated"`
	// CacheHits counts estimate/batch/occupy answers served from the
	// response cache without simulating.
	CacheHits int64 `json:"cache_hits"`
	// CacheSize is the response cache's current distinct-key count.
	CacheSize int `json:"cache_size"`
	// Engines counts warm engines resident in the pool.
	Engines int `json:"engines"`
	// Occupies counts occupy grants issued.
	Occupies int64 `json:"occupies"`
}

// Response is one protocol response line. Exactly one payload pointer is
// set on success, matching the op; on failure OK is false and Error names
// the problem while the session stays usable.
type Response struct {
	Op string `json:"op"`
	ID int64  `json:"id,omitempty"`
	OK bool   `json:"ok"`
	// Error describes a failed request (OK false).
	Error string `json:"error,omitempty"`

	// Protocol/Engine/FlitBytes/Network answer hello: the negotiated
	// protocol version, the simulator-core generation (cache provenance),
	// the session's flit width, and the engine's network summary.
	Protocol  int                  `json:"protocol,omitempty"`
	Engine    string               `json:"engine,omitempty"`
	FlitBytes int                  `json:"flit_bytes,omitempty"`
	Network   *slimnoc.NetworkInfo `json:"network,omitempty"`

	// Result answers estimate.
	Result *slimnoc.EstimateResult `json:"result,omitempty"`
	// Results answers batch, in request order.
	Results []slimnoc.EstimateResult `json:"results,omitempty"`
	// Grant answers occupy.
	Grant *Grant `json:"grant,omitempty"`
	// Window answers window.
	Window *WindowInfo `json:"window,omitempty"`
	// Stats answers stats.
	Stats *Stats `json:"stats,omitempty"`
}

// flitsFor converts a wire transfer's size to flits: an explicit flit count
// wins, else bytes are divided by the session's flit width (rounded up,
// minimum one flit).
func flitsFor(t WireTransfer, flitBytes int) (int, error) {
	if t.Flits < 0 || t.Bytes < 0 {
		return 0, fmt.Errorf("serve: negative transfer size (flits %d, bytes %d)", t.Flits, t.Bytes)
	}
	if t.Flits > 0 {
		return t.Flits, nil
	}
	if t.Bytes == 0 {
		return 0, fmt.Errorf("serve: transfer %d -> %d has neither bytes nor flits", t.Src, t.Dst)
	}
	if flitBytes <= 0 {
		flitBytes = defaultFlitBytes
	}
	flits := int((t.Bytes + int64(flitBytes) - 1) / int64(flitBytes))
	if flits < 1 {
		flits = 1
	}
	return flits, nil
}
