// Package serve turns the simulator into a co-simulation latency oracle:
// a long-lived service that external execution engines (host simulators,
// schedulers, performance models) query for cycle-accurate transfer
// latencies instead of linking the simulator in or re-running whole
// campaigns.
//
// The wire protocol is versioned JSON lines — one request object per line,
// one response per line, in order — over any stream transport
// (stdin/stdout of the snserve binary, a TCP connection, or an in-process
// pipe). Verbs: hello (version + engine negotiation), estimate (one
// transfer's idle-network latency), batch (N transfers contending in one
// engine episode), occupy and window (per-link occupancy windows that model
// backpressure on the client's timeline), stats, shutdown. The full field
// matrix lives in docs/SERVING.md.
//
// Behind the protocol sit two shared structures. The Pool multiplexes
// sessions over warm engines keyed by canonical estimator spec — network,
// routing, and VC configuration are built once and shared read-only, and
// the simulators that run the episodes are reset and reused rather than
// rebuilt — and bounds concurrent engine activations so overload queues
// instead of thrashing. The Cache content-addresses every estimate episode in a
// store.Store, salted with the engine version exactly like slimnoc's
// PointKey, so repeated queries are served without simulating, across
// sessions and server restarts, and an engine bump can never serve stale
// numbers.
//
// Client is the Go-side library for the estimating verbs: the hello
// handshake over a transport the caller opens, pipelined submission with
// a bounded in-flight window (server backpressure reaches callers by
// blocking, not queue growth), and typed estimate and batch calls.
package serve
