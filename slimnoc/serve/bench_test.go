package serve_test

import (
	"path/filepath"
	"testing"

	"repro/slimnoc/serve"
)

// BenchmarkServeEstimate times the full serving path — client, JSON-line
// protocol, session, engine or cache — in its three regimes: cold (every
// query is an engine episode), warm-cache (every query is a store hit), and
// batch (32 transfers amortizing one engine activation). A local profiling
// entry point; `go run ./benchmark -workload serve-mixed` is the
// measurement of record.
func BenchmarkServeEstimate(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		srv := serve.NewServer() // no cache: every estimate simulates
		c, err := serve.NewClient(startServer(b, srv), testSpec())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if _, err := c.EstimateFlits(0, 27, 4); err != nil {
			b.Fatal(err) // engine build happens here, outside the timed loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.EstimateFlits(0, 27, 4); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm-cache", func(b *testing.B) {
		srv := serve.NewServer(serve.WithCache(openCache(b, filepath.Join(b.TempDir(), "bench.jsonl"))))
		c, err := serve.NewClient(startServer(b, srv), testSpec())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if _, err := c.EstimateFlits(0, 27, 4); err != nil {
			b.Fatal(err) // populates the cache: the timed loop only hits
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.EstimateFlits(0, 27, 4); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("batch-32", func(b *testing.B) {
		srv := serve.NewServer()
		c, err := serve.NewClient(startServer(b, srv), testSpec())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		transfers := make([]serve.WireTransfer, 32)
		for i := range transfers {
			transfers[i] = serve.WireTransfer{Src: (i * 7) % 54, Dst: (i*31 + 5) % 54, Flits: 1 + i%6}
		}
		if _, err := c.Batch(transfers); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Batch(transfers); err != nil {
				b.Fatal(err)
			}
		}
	})
}
