package serve_test

import (
	"cmp"
	"context"
	"errors"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/slimnoc"
	"repro/slimnoc/serve"
	"repro/slimnoc/store"
)

// testSpec is the engine every serve test negotiates: the small-scale 54-node
// torus so estimator builds stay cheap.
func testSpec() slimnoc.RunSpec {
	return slimnoc.RunSpec{Network: slimnoc.NetworkSpec{Preset: "t2d54"}}
}

// startServer runs srv over one end of an in-process pipe and returns the
// client end. The server goroutine exits when the pipe closes or the
// session asks for shutdown.
func startServer(t testing.TB, srv *serve.Server) net.Conn {
	t.Helper()
	sc, cc := net.Pipe()
	go func() {
		defer sc.Close()
		srv.ServeConn(context.Background(), sc)
	}()
	t.Cleanup(func() { cc.Close() })
	return cc
}

func openCache(t testing.TB, path string) *serve.Cache {
	t.Helper()
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return serve.NewCache(st)
}

// estimate asks the session for the isolated latency of moving bytes from
// src to dst.
func estimate(c *serve.Client, src, dst int, bytes int64) (slimnoc.EstimateResult, error) {
	resp, err := c.RoundTrip(serve.Request{Op: "estimate", Src: &src, Dst: &dst, Bytes: bytes})
	if err != nil || resp.Result == nil {
		return slimnoc.EstimateResult{}, cmp.Or(err, errors.New("estimate response without a result"))
	}
	return *resp.Result, nil
}

// stats fetches the server's deterministic service counters.
func stats(t testing.TB, c *serve.Client) serve.Stats {
	t.Helper()
	resp, err := c.RoundTrip(serve.Request{Op: "stats"})
	if err != nil || resp.Stats == nil {
		t.Fatalf("stats: %+v, %v", resp, err)
	}
	return *resp.Stats
}

// occupy schedules a transfer of bytes from src to dst on the session
// timeline no earlier than start.
func occupy(t testing.TB, c *serve.Client, src, dst int, bytes, start int64) serve.Grant {
	t.Helper()
	resp, err := c.RoundTrip(serve.Request{Op: "occupy", Src: &src, Dst: &dst, Bytes: bytes, Start: start})
	if err != nil || resp.Grant == nil {
		t.Fatalf("occupy: %+v, %v", resp, err)
	}
	return *resp.Grant
}

// window sends a window request (route, reset) and returns the session's
// occupancy state.
func window(t testing.TB, c *serve.Client, req serve.Request) serve.WindowInfo {
	t.Helper()
	req.Op = "window"
	resp, err := c.RoundTrip(req)
	if err != nil || resp.Window == nil {
		t.Fatalf("window: %+v, %v", resp, err)
	}
	return *resp.Window
}

func TestServeSessionEndToEnd(t *testing.T) {
	srv := serve.NewServer(
		serve.WithCache(openCache(t, filepath.Join(t.TempDir(), "serve.jsonl"))),
		serve.WithPool(serve.NewPool(2)),
	)
	// A session that negotiates 8-byte flits converts bytes at that width.
	raw := rawSession(t, startServer(t, srv), []string{
		`{"op":"hello","id":1,"flit_bytes":8,"spec":{"network":{"preset":"t2d54"}}}`,
		`{"op":"estimate","id":2,"src":0,"dst":27,"bytes":64}`,
	})
	if raw[0].Engine != slimnoc.EngineVersion {
		t.Fatalf("engine = %q, want %q", raw[0].Engine, slimnoc.EngineVersion)
	}
	if raw[0].FlitBytes != 8 {
		t.Fatalf("flit bytes = %d, want 8", raw[0].FlitBytes)
	}
	if raw[1].Result == nil || raw[1].Result.Flits != 8 {
		t.Fatalf("64 bytes at 8-byte flits: %+v, want 8 flits", raw[1])
	}
	c, err := serve.NewClient(startServer(t, srv), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Network().Nodes != 54 {
		t.Fatalf("nodes = %d, want 54", c.Network().Nodes)
	}

	// Isolated estimate; the repeat must be served from cache (Simulated
	// stays put) with the identical result.
	r1, err := estimate(c, 0, 27, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r1.LatencyCycles <= 0 || r1.Flits != 4 {
		t.Fatalf("estimate = %+v", r1)
	}
	st1 := stats(t, c)
	r2, err := estimate(c, 0, 27, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("repeat estimate differs: %+v vs %+v", r1, r2)
	}
	st2 := stats(t, c)
	if st2.Simulated != st1.Simulated {
		t.Fatalf("repeat estimate simulated (simulated %d -> %d)", st1.Simulated, st2.Simulated)
	}
	if st2.CacheHits != st1.CacheHits+1 {
		t.Fatalf("cache hits %d -> %d, want +1", st1.CacheHits, st2.CacheHits)
	}

	// A contended batch is never faster than the same transfer alone.
	batch, err := c.Batch([]serve.WireTransfer{
		{Src: 0, Dst: 27, Bytes: 64},
		{Src: 1, Dst: 27, Bytes: 64},
		{Src: 2, Dst: 27, Bytes: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch results = %d", len(batch))
	}
	if batch[0].LatencyCycles < r1.LatencyCycles {
		t.Fatalf("contended %d < isolated %d", batch[0].LatencyCycles, r1.LatencyCycles)
	}

	// Occupancy: a second transfer on the same route is pushed past the
	// first one's window.
	g1 := occupy(t, c, 0, 27, 64, 0)
	if g1.Start != 0 || g1.Waited != 0 || g1.Finish != g1.LatencyCycles {
		t.Fatalf("first grant = %+v", g1)
	}
	g2 := occupy(t, c, 0, 27, 64, 0)
	if g2.Start != g1.Finish || g2.Waited != g1.Finish {
		t.Fatalf("second grant not pushed past first: %+v after %+v", g2, g1)
	}

	// Window reflects the reservations; a disjoint route is free now.
	src, dst := 0, 27
	w := window(t, c, serve.Request{Src: &src, Dst: &dst})
	if w.Horizon != g2.Finish || w.BusyLinks == 0 {
		t.Fatalf("window = %+v, want horizon %d and busy links", w, g2.Finish)
	}
	if w.FreeAt == nil || *w.FreeAt != g2.Finish {
		t.Fatalf("route free_at = %v, want %d", w.FreeAt, g2.Finish)
	}
	window(t, c, serve.Request{Reset: true})
	w = window(t, c, serve.Request{})
	if w.Horizon != 0 || w.BusyLinks != 0 {
		t.Fatalf("window after reset = %+v", w)
	}

	// Protocol errors leave the session usable.
	if _, err := estimate(c, -1, 27, 64); err == nil {
		t.Fatal("out-of-range estimate accepted")
	}
	if _, err := estimate(c, 0, 1, 64); err != nil {
		t.Fatalf("session unusable after error: %v", err)
	}

	if _, err := c.RoundTrip(serve.Request{Op: "shutdown"}); err != nil {
		t.Fatal(err)
	}
}

// TestServeWarmRerunZeroSimulations pins the acceptance criterion: replaying
// a session against a server restarted on the same store serves every
// estimate from cache, with identical results and zero engine episodes.
func TestServeWarmRerunZeroSimulations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.jsonl")
	run := func() ([]slimnoc.EstimateResult, serve.Stats) {
		srv := serve.NewServer(serve.WithCache(openCache(t, path)))
		c, err := serve.NewClient(startServer(t, srv), testSpec())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var results []slimnoc.EstimateResult
		for _, tr := range [][2]int{{0, 53}, {3, 17}, {17, 3}, {5, 5}} {
			r, err := c.EstimateFlits(tr[0], tr[1], 4)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
		batch, err := c.Batch([]serve.WireTransfer{
			{Src: 0, Dst: 27, Flits: 4},
			{Src: 9, Dst: 27, Flits: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, batch...)
		return results, stats(t, c)
	}

	cold, coldStats := run()
	if coldStats.Simulated == 0 {
		t.Fatal("cold run simulated nothing")
	}
	warm, warmStats := run()
	if warmStats.Simulated != 0 {
		t.Fatalf("warm rerun simulated %d episodes, want 0", warmStats.Simulated)
	}
	if len(warm) != len(cold) {
		t.Fatalf("result counts differ: %d vs %d", len(warm), len(cold))
	}
	for i := range cold {
		if cold[i] != warm[i] {
			t.Fatalf("result %d differs warm vs cold: %+v vs %+v", i, warm[i], cold[i])
		}
	}
}

// TestServeConcurrentDeterminism pins satellite 3: the same transcript of
// estimates yields identical latencies whether submitted serially or from
// many goroutines pipelining over one session, more of them than the
// client's in-flight window, so submission blocks on a full window. No
// cache is attached, so every answer is a live engine episode.
func TestServeConcurrentDeterminism(t *testing.T) {
	srv := serve.NewServer(serve.WithPool(serve.NewPool(4)))
	c, err := serve.NewClient(startServer(t, srv), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type q struct{ src, dst, flits int }
	queries := make([]q, 48)
	for i := range queries {
		queries[i] = q{src: (i * 7) % 54, dst: (i*31 + 5) % 54, flits: 1 + i%6}
	}

	serial := make([]slimnoc.EstimateResult, len(queries))
	for i, s := range queries {
		r, err := c.EstimateFlits(s.src, s.dst, s.flits)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}

	concurrent := make([]slimnoc.EstimateResult, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, s := range queries {
		wg.Add(1)
		go func(i int, s q) {
			defer wg.Done()
			concurrent[i], errs[i] = c.EstimateFlits(s.src, s.dst, s.flits)
		}(i, s)
	}
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if serial[i] != concurrent[i] {
			t.Fatalf("query %d: concurrent %+v != serial %+v", i, concurrent[i], serial[i])
		}
	}
	if st := stats(t, c); st.Simulated != int64(2*len(queries)) {
		t.Fatalf("simulated = %d, want %d (no cache attached)", st.Simulated, 2*len(queries))
	}
}

func TestFlitsFor(t *testing.T) {
	cases := []struct {
		tr        serve.WireTransfer
		flitBytes int
		want      int
		wantErr   bool
	}{
		{serve.WireTransfer{Bytes: 64}, 16, 4, false},
		{serve.WireTransfer{Bytes: 65}, 16, 5, false},
		{serve.WireTransfer{Bytes: 1}, 16, 1, false},
		{serve.WireTransfer{Bytes: 64, Flits: 2}, 16, 2, false},
		{serve.WireTransfer{Flits: 7}, 16, 7, false},
		{serve.WireTransfer{Bytes: 64}, 0, 4, false}, // 0 width -> default 16
		{serve.WireTransfer{}, 16, 0, true},
		{serve.WireTransfer{Bytes: -1}, 16, 0, true},
		{serve.WireTransfer{Flits: -1}, 16, 0, true},
	}
	for i, tc := range cases {
		got, err := serve.FlitsFor(tc.tr, tc.flitBytes)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("case %d: FlitsFor(%+v, %d) = %d, %v; want %d, err=%v",
				i, tc.tr, tc.flitBytes, got, err, tc.want, tc.wantErr)
		}
	}
}

func TestServeRequiresHello(t *testing.T) {
	srv := serve.NewServer()
	cc := startServer(t, srv)
	// Speak the protocol manually: an estimate before hello must fail but
	// keep the session alive for a subsequent hello.
	raw := rawSession(t, cc, []string{
		`{"op":"estimate","id":1,"src":0,"dst":1,"flits":1}`,
		`{"op":"hello","id":2,"spec":{"network":{"preset":"t2d54"}}}`,
	})
	if raw[0].OK || raw[0].Error == "" {
		t.Fatalf("pre-hello estimate accepted: %+v", raw[0])
	}
	if !raw[1].OK || raw[1].Protocol != serve.ProtocolVersion {
		t.Fatalf("hello after error failed: %+v", raw[1])
	}
}

// TestServeSurvivesOversizedTransfer: a transfer too large for the engine's
// 16-bit flit index is answered with an error line, and the session (and
// with it the server) goes on to serve the next request.
func TestServeSurvivesOversizedTransfer(t *testing.T) {
	srv := serve.NewServer()
	cc := startServer(t, srv)
	raw := rawSession(t, cc, []string{
		`{"op":"hello","id":1,"spec":{"network":{"preset":"t2d54"}}}`,
		`{"op":"estimate","id":2,"src":0,"dst":53,"flits":70000}`,
		`{"op":"estimate","id":3,"src":0,"dst":53,"flits":6}`,
	})
	if !raw[0].OK {
		t.Fatalf("hello failed: %+v", raw[0])
	}
	if raw[1].OK || !strings.Contains(raw[1].Error, "70000 flits") {
		t.Fatalf("oversized estimate: %+v, want an error naming its 70000 flits", raw[1])
	}
	if !raw[2].OK || raw[2].Result == nil || raw[2].Result.LatencyCycles <= 0 {
		t.Fatalf("estimate after the error: %+v", raw[2])
	}
}

func TestServeRejectsWrongProtocolVersion(t *testing.T) {
	srv := serve.NewServer()
	cc := startServer(t, srv)
	raw := rawSession(t, cc, []string{
		`{"op":"hello","id":1,"version":99,"spec":{"network":{"preset":"t2d54"}}}`,
	})
	if raw[0].OK {
		t.Fatalf("version 99 accepted: %+v", raw[0])
	}
}

// TestPoolDefaultSizeFollowsGOMAXPROCS pins the default slot count to the
// Ps the process may use, not the CPU count: on one P a default pool runs
// one episode at a time.
func TestPoolDefaultSizeFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := serve.NewPool(0).Size(); got != 1 {
		t.Errorf("NewPool(0) on one P has %d slots, want 1", got)
	}
}
