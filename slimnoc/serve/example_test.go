package serve_test

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"

	"repro/slimnoc"
	"repro/slimnoc/serve"
	"repro/slimnoc/store"
)

// A toy host pipeline uses the server as its latency oracle over an
// in-process pipe: a load fans out to two compute stages that read the
// loaded buffer, and a store drains the first stage's output. The host
// tracks only data dependencies; both compute stages leave node 77 over
// the same links, so the oracle pushes the second one back (waited > 0)
// although the host issued both for the same cycle. A second session on
// the same store replays the pipeline from the response cache without
// simulating. Swapping the pipe for a TCP connection (Dial) or an snserve
// subprocess changes nothing else.
func ExampleNewClient() {
	dir, err := os.MkdirTemp("", "snserve-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "serve.jsonl"))
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	srv := serve.NewServer(serve.WithCache(serve.NewCache(st)))
	session := func() *serve.Client {
		sc, cc := net.Pipe()
		go srv.ServeConn(context.Background(), sc)
		// The hello handshake names the engine: the paper's SN-S network
		// (200 nodes) with its defaults.
		c, err := serve.NewClient(cc, slimnoc.RunSpec{
			Network: slimnoc.NetworkSpec{Topology: "sn", Q: 5, Conc: 4, Layout: "subgr"},
		})
		if err != nil {
			log.Fatal(err)
		}
		return c
	}
	pipeline := func(c *serve.Client) int64 {
		occupy := func(name string, src, dst int, bytes, at int64) serve.Grant {
			g, err := c.Occupy(src, dst, bytes, at)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-6s start %5d  finish %5d  waited %3d  (%d hops)\n",
				name, g.Start, g.Finish, g.Waited, g.Hops)
			return g
		}
		load := occupy("load", 0, 77, 4096, 0)
		s1 := occupy("stage1", 77, 150, 2048, load.Finish)
		s2 := occupy("stage2", 77, 151, 2048, load.Finish)
		out := occupy("store", 150, 199, 1024, s1.Finish)
		return max(out.Finish, s2.Finish)
	}

	cold := session()
	n := cold.Network()
	fmt.Printf("%s: %d routers, %d nodes\n", n.Name, n.Routers, n.Nodes)
	fmt.Println("cold pass:")
	makespan := pipeline(cold)
	stats, err := cold.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("makespan %d cycles, %d simulated\n", makespan, stats.Simulated)
	cold.Close()

	warm := session()
	defer warm.Close()
	fmt.Println("warm pass:")
	makespan = pipeline(warm)
	again, err := warm.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("makespan %d cycles, %d simulated, %d cache hits\n",
		makespan, again.Simulated-stats.Simulated, again.CacheHits)
	// Output:
	// sn_subgr_200: 50 routers, 200 nodes
	// cold pass:
	//   load   start     0  finish   835  waited   0  (2 hops)
	//   stage1 start   835  finish   997  waited   0  (2 hops)
	//   stage2 start   997  finish  1159  waited 162  (2 hops)
	//   store  start   997  finish  1161  waited   0  (2 hops)
	// makespan 1161 cycles, 4 simulated
	// warm pass:
	//   load   start     0  finish   835  waited   0  (2 hops)
	//   stage1 start   835  finish   997  waited   0  (2 hops)
	//   stage2 start   997  finish  1159  waited 162  (2 hops)
	//   store  start   997  finish  1161  waited   0  (2 hops)
	// makespan 1161 cycles, 0 simulated, 4 cache hits
}
