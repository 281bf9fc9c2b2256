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
// in-process pipe: a load brings a buffer to node 77, then two compute
// stages read it out of node 77 at once. The host issues the stages as one
// batch, so they contend for the links leaving node 77 and the second one
// lands later than it would alone. A second session on the same store
// replays the pipeline from the response cache without simulating.
// Swapping the pipe for a TCP connection or an snserve subprocess changes
// nothing else.
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
	pipeline := func(c *serve.Client) {
		load, err := c.EstimateFlits(0, 77, 256)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  load    %4d cycles  (%d hops)\n", load.LatencyCycles, load.Hops)
		stages, err := c.Batch([]serve.WireTransfer{
			{Src: 77, Dst: 150, Bytes: 2048},
			{Src: 77, Dst: 151, Bytes: 2048},
		})
		if err != nil {
			log.Fatal(err)
		}
		for i, r := range stages {
			fmt.Printf("  stage%d  %4d cycles  (%d hops)\n", i+1, r.LatencyCycles, r.Hops)
		}
	}

	cold := session()
	n := cold.Network()
	fmt.Printf("%s: %d routers, %d nodes\n", n.Name, n.Routers, n.Nodes)
	fmt.Println("cold pass:")
	pipeline(cold)
	cold.Close()
	stats := srv.Stats()
	fmt.Printf("%d simulated\n", stats.Simulated)

	warm := session()
	defer warm.Close()
	fmt.Println("warm pass:")
	pipeline(warm)
	again := srv.Stats()
	fmt.Printf("%d simulated, %d cache hits\n", again.Simulated-stats.Simulated, again.CacheHits)
	// Output:
	// sn_subgr_200: 50 routers, 200 nodes
	// cold pass:
	//   load     835 cycles  (2 hops)
	//   stage1   162 cycles  (2 hops)
	//   stage2   316 cycles  (2 hops)
	// 2 simulated
	// warm pass:
	//   load     835 cycles  (2 hops)
	//   stage1   162 cycles  (2 hops)
	//   stage2   316 cycles  (2 hops)
	// 0 simulated, 2 cache hits
}
