package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"

	"repro/slimnoc"
	"repro/slimnoc/store"
)

// ErrShutdown is returned by ServeConn when the session issued the
// shutdown verb: the response has already been written and the server
// should stop accepting new sessions.
var ErrShutdown = errors.New("serve: shutdown requested")

// maxLineBytes bounds one protocol line (requests and responses); a batch
// of tens of thousands of transfers fits comfortably.
const maxLineBytes = 16 << 20

// DefaultMaxBatch bounds the transfer count of one batch request.
const DefaultMaxBatch = 4096

// Server is the co-simulation latency oracle: it speaks the JSON-line
// protocol over any line-oriented transport (stdin/stdout, a TCP
// connection), multiplexes sessions over a shared engine Pool, and serves
// repeated estimates from a store-backed response Cache without
// simulating. A Server is safe for concurrent sessions; per-session state
// (negotiated engine, flit width, occupancy windows) lives in the session,
// so sessions never interfere except by sharing warm engines and the
// cache — both read-mostly by design.
type Server struct {
	pool     *Pool
	cache    *Cache
	maxBatch int

	sessions  atomic.Int64
	requests  atomic.Int64
	estimates atomic.Int64
	simulated atomic.Int64
	occupies  atomic.Int64
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithPool supplies a shared engine pool (several servers may share one).
// The default is a fresh NewPool(0).
func WithPool(p *Pool) ServerOption {
	return func(s *Server) { s.pool = p }
}

// WithCache attaches a store-backed response cache; without one every
// estimate simulates.
func WithCache(c *Cache) ServerOption {
	return func(s *Server) { s.cache = c }
}

// WithMaxBatch overrides the per-request transfer bound
// (default DefaultMaxBatch).
func WithMaxBatch(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxBatch = n
		}
	}
}

// NewServer builds a server.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{maxBatch: DefaultMaxBatch}
	for _, o := range opts {
		o(s)
	}
	if s.pool == nil {
		s.pool = NewPool(0)
	}
	return s
}

// Stats snapshots the deterministic service counters.
func (s *Server) Stats() Stats {
	return Stats{
		Sessions:  s.sessions.Load(),
		Requests:  s.requests.Load(),
		Estimates: s.estimates.Load(),
		Simulated: s.simulated.Load(),
		CacheHits: s.cache.hitCount(),
		CacheSize: s.cache.size(),
		Engines:   s.pool.resident(),
		Occupies:  s.occupies.Load(),
	}
}

// session is the per-connection protocol state.
type session struct {
	srv       *Server
	est       *slimnoc.Estimator
	keyer     *episodeKeyer // cache keys under est's spec; nil without a cache
	flitBytes int
	windows   windowSet
}

// ServeConn runs one protocol session over rw: one JSON request per line
// in, one JSON response per line out, in order. It returns nil when the
// peer closes the stream, ErrShutdown when the session asked the server to
// stop, and the transport error otherwise. Cancelling ctx aborts in-flight
// engine acquisition; the transport itself is the caller's to close.
func (s *Server) ServeConn(ctx context.Context, rw io.ReadWriter) error {
	sess := &session{srv: s, flitBytes: defaultFlitBytes}
	sc := bufio.NewScanner(rw)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	w := bufio.NewWriter(rw)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		resp := Response{Op: "error"}
		if err := json.Unmarshal(line, &req); err != nil {
			resp.Error = fmt.Sprintf("serve: malformed request line: %v", err)
		} else {
			resp = sess.handle(ctx, req)
		}
		out, err := json.Marshal(resp)
		if err != nil {
			// A response that cannot marshal is a server bug; surface it as
			// a protocol-level error line rather than silently skipping the
			// response and desynchronizing the stream.
			out, _ = json.Marshal(Response{Op: req.Op, ID: req.ID, Error: fmt.Sprintf("serve: marshal response: %v", err)})
		}
		w.Write(out)
		w.WriteByte('\n')
		if err := w.Flush(); err != nil {
			return fmt.Errorf("serve: write response: %w", err)
		}
		if req.Op == opShutdown && resp.OK {
			return ErrShutdown
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("serve: read request: %w", err)
	}
	return nil
}

// ListenAndServe listens on addr (TCP) and accepts sessions until ctx ends
// or a session requests shutdown; each session runs in its own goroutine.
// The listener is closed on return.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		go func() {
			defer conn.Close()
			if err := s.ServeConn(ctx, conn); errors.Is(err, ErrShutdown) {
				cancel()
			}
		}()
	}
}

// handle dispatches one request. Every path returns a response; failures
// set Error and leave the session usable.
func (sess *session) handle(ctx context.Context, req Request) Response {
	sess.srv.requests.Add(1)
	resp := Response{Op: req.Op, ID: req.ID}
	fail := func(format string, args ...any) Response {
		resp.Error = fmt.Sprintf(format, args...)
		return resp
	}
	switch req.Op {
	case opHello:
		if req.Version != 0 && req.Version != protocolVersion {
			return fail("serve: protocol version %d unsupported (server speaks %d)", req.Version, protocolVersion)
		}
		if req.Spec == nil {
			return fail("serve: hello needs a spec")
		}
		if req.FlitBytes < 0 {
			return fail("serve: flit_bytes = %d, want >= 0", req.FlitBytes)
		}
		est, err := sess.srv.pool.engine(*req.Spec)
		if err != nil {
			return fail("%v", err)
		}
		var keyer *episodeKeyer
		if sess.srv.cache != nil {
			if keyer, err = newEpisodeKeyer(est.Spec()); err != nil {
				return fail("%v", err)
			}
		}
		sess.est, sess.keyer = est, keyer
		if req.FlitBytes > 0 {
			sess.flitBytes = req.FlitBytes
		}
		sess.windows.reset()
		sess.srv.sessions.Add(1)
		info := est.Network()
		resp.OK = true
		resp.Protocol = protocolVersion
		resp.Engine = slimnoc.EngineVersion
		resp.FlitBytes = sess.flitBytes
		resp.Network = &info
		return resp

	case OpEstimate:
		tr, err := sess.oneTransfer(req)
		if err != nil {
			return fail("%v", err)
		}
		results, err := sess.estimate(ctx, []slimnoc.Transfer{tr})
		if err != nil {
			return fail("%v", err)
		}
		resp.OK = true
		resp.Result = &results[0]
		return resp

	case opBatch:
		if sess.est == nil {
			return fail("serve: hello required before %s", req.Op)
		}
		if len(req.Transfers) == 0 {
			return fail("serve: empty batch")
		}
		if len(req.Transfers) > sess.srv.maxBatch {
			return fail("serve: batch of %d transfers exceeds the server bound %d", len(req.Transfers), sess.srv.maxBatch)
		}
		transfers := make([]slimnoc.Transfer, len(req.Transfers))
		for i, wt := range req.Transfers {
			flits, err := flitsFor(wt, sess.flitBytes)
			if err != nil {
				return fail("%v", err)
			}
			transfers[i] = slimnoc.Transfer{Src: wt.Src, Dst: wt.Dst, Flits: flits}
		}
		results, err := sess.estimate(ctx, transfers)
		if err != nil {
			return fail("%v", err)
		}
		resp.OK = true
		resp.Results = results
		return resp

	case opOccupy:
		tr, err := sess.oneTransfer(req)
		if err != nil {
			return fail("%v", err)
		}
		if req.Start < 0 {
			return fail("serve: occupy start = %d, want >= 0", req.Start)
		}
		results, err := sess.estimate(ctx, []slimnoc.Transfer{tr})
		if err != nil {
			return fail("%v", err)
		}
		path, err := sess.est.RouterPath(tr.Src, tr.Dst)
		if err != nil {
			return fail("%v", err)
		}
		start := sess.windows.freeAt(path, req.Start)
		finish := start + results[0].LatencyCycles
		sess.windows.reserve(path, finish)
		sess.srv.occupies.Add(1)
		resp.OK = true
		resp.Grant = &Grant{
			Requested:     req.Start,
			Start:         start,
			Finish:        finish,
			LatencyCycles: results[0].LatencyCycles,
			Waited:        start - req.Start,
			Hops:          results[0].Hops,
		}
		return resp

	case opWindow:
		if sess.est == nil {
			return fail("serve: hello required before %s", req.Op)
		}
		if req.Reset {
			sess.windows.reset()
		}
		win := WindowInfo{Horizon: sess.windows.horizon, BusyLinks: sess.windows.busyLinks()}
		if req.Src != nil || req.Dst != nil {
			if req.Src == nil || req.Dst == nil {
				return fail("serve: window route query needs both src and dst")
			}
			path, err := sess.est.RouterPath(*req.Src, *req.Dst)
			if err != nil {
				return fail("%v", err)
			}
			freeAt := sess.windows.freeAt(path, 0)
			win.FreeAt = &freeAt
		}
		resp.OK = true
		resp.Window = &win
		return resp

	case opStats:
		st := sess.srv.Stats()
		resp.OK = true
		resp.Stats = &st
		return resp

	case opShutdown:
		resp.OK = true
		return resp

	default:
		return fail("serve: unknown op %q", req.Op)
	}
}

// oneTransfer resolves the single-transfer fields of an estimate or occupy
// request against the session.
func (sess *session) oneTransfer(req Request) (slimnoc.Transfer, error) {
	if sess.est == nil {
		return slimnoc.Transfer{}, fmt.Errorf("serve: hello required before %s", req.Op)
	}
	if req.Src == nil || req.Dst == nil {
		return slimnoc.Transfer{}, fmt.Errorf("serve: %s needs src and dst", req.Op)
	}
	flits, err := flitsFor(WireTransfer{Src: *req.Src, Dst: *req.Dst, Bytes: req.Bytes, Flits: req.Flits}, sess.flitBytes)
	if err != nil {
		return slimnoc.Transfer{}, err
	}
	return slimnoc.Transfer{Src: *req.Src, Dst: *req.Dst, Flits: flits}, nil
}

// estimate answers one episode through the cache: a hit is served without
// touching the engine, a miss acquires an activation slot, simulates, and
// persists the results before returning them.
func (sess *session) estimate(ctx context.Context, transfers []slimnoc.Transfer) ([]slimnoc.EstimateResult, error) {
	srv := sess.srv
	srv.estimates.Add(int64(len(transfers)))
	var key store.Key
	cached := sess.keyer != nil
	if cached {
		key = sess.keyer.key(transfers)
		if results, ok := srv.cache.Get(key); ok && len(results) == len(transfers) {
			return results, nil
		}
	}
	if err := srv.pool.acquire(ctx); err != nil {
		return nil, err
	}
	results, err := sess.est.Estimate(transfers)
	srv.pool.release()
	if err != nil {
		return nil, err
	}
	srv.simulated.Add(1)
	if cached {
		if err := srv.cache.Put(key, results); err != nil {
			// The estimate itself succeeded; a durability failure must
			// surface, or a "cached" service would silently recompute
			// forever (mirroring the campaign store contract).
			return nil, fmt.Errorf("serve: response cache: %w", err)
		}
	}
	return results, nil
}
