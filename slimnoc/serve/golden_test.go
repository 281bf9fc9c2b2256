package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/golden"
	"repro/slimnoc"
	"repro/slimnoc/serve"
)

// rawSession writes protocol lines verbatim and collects one response per
// request, for tests that speak the wire format directly.
func rawSession(t testing.TB, conn net.Conn, lines []string) []serve.Response {
	t.Helper()
	go func() {
		for _, l := range lines {
			if _, err := conn.Write([]byte(l + "\n")); err != nil {
				return
			}
		}
	}()
	sc := bufio.NewScanner(conn)
	resps := make([]serve.Response, 0, len(lines))
	for range lines {
		if !sc.Scan() {
			t.Fatalf("connection ended after %d of %d responses: %v", len(resps), len(lines), sc.Err())
		}
		var r serve.Response
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("malformed response %q: %v", sc.Bytes(), err)
		}
		resps = append(resps, r)
	}
	return resps
}

// scriptRW adapts a scripted request stream and a response sink to the
// ServeConn transport.
type scriptRW struct {
	io.Reader
	io.Writer
}

// TestProtocolGolden pins the wire format: the scripted session in
// testdata/protocol_requests.jsonl must produce byte-for-byte the responses
// in testdata/protocol_golden.jsonl. The transcript covers every verb,
// cache-hit repeats, occupancy backpressure, both error shapes, and the
// deterministic stats block. It is pinned under the engine and protocol
// versions: an intentional wire change bumps ProtocolVersion and re-pins
// with GOLDEN_UPDATE=1 go test ./...
func TestProtocolGolden(t *testing.T) {
	reqs, err := os.ReadFile(filepath.Join("testdata", "protocol_requests.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(
		serve.WithCache(openCache(t, filepath.Join(t.TempDir(), "golden.jsonl"))),
		serve.WithPool(serve.NewPool(1)),
	)
	var out bytes.Buffer
	err = srv.ServeConn(context.Background(), scriptRW{bytes.NewReader(reqs), &out})
	if err != nil && !errors.Is(err, serve.ErrShutdown) {
		t.Fatal(err)
	}
	version := fmt.Sprintf("%s|protocol=%d", slimnoc.EngineVersion, serve.ProtocolVersion)
	golden.Check(t, filepath.Join("testdata", "protocol_golden.jsonl"), version, out.Bytes())

	// Round-trip check: every response line must decode into Response and
	// re-encode to the identical bytes, so the pinned fixture stays in sync
	// with the Go types.
	sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
	for line := 1; sc.Scan(); line++ {
		var r serve.Response
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("response line %d does not decode: %v", line, err)
		}
		re, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, sc.Bytes()) {
			t.Fatalf("response line %d does not round-trip:\n    got: %s\nre-enc: %s", line, sc.Bytes(), re)
		}
	}
}
