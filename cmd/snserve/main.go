// Command snserve runs the simulator as a co-simulation latency oracle: a
// long-lived service that external execution engines query for
// cycle-accurate transfer latencies over a JSON-line protocol (one request
// object per line, one response per line — see docs/SERVING.md).
//
// Two transports:
//
//	snserve                          # stdio: one session over stdin/stdout
//	snserve -listen 127.0.0.1:7333   # TCP: one session per connection
//
// A result store turns the service into a persistent memo table: every
// estimate episode is content-addressed (expanded spec + transfer batch +
// engine version) and durably cached, so a warm rerun of the same
// co-simulation serves every query without simulating:
//
//	snserve -store results < session.jsonl
//
// Sessions negotiate their engine (network, routing, VCs) in the hello
// request; warm engines are shared across sessions and -pool bounds how
// many engine episodes run concurrently (excess queues, which is how
// backpressure reaches clients).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/slimnoc/serve"
	"repro/slimnoc/store"
)

// stdio adapts a reader and a writer to the ServeConn transport.
type stdio struct {
	io.Reader
	io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run serves on the command-line arguments and returns the process exit
// code: 0 on a clean shutdown, 1 on failure, 2 on a usage error. Without
// -listen the one session reads requests from stdin and answers on stdout.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", "", "TCP address to serve on (empty = one stdio session)")
		storeDir = fs.String("store", "", "result-store directory for the response cache (empty = no cache; reruns re-simulate)")
		pool     = fs.Int("pool", 0, "concurrent engine-activation bound (0 = GOMAXPROCS)")
		maxBatch = fs.Int("max-batch", serve.DefaultMaxBatch, "largest accepted batch request")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "snserve: unexpected argument %q (requests arrive on stdin or -listen, not argv)\n", fs.Arg(0))
		return 2
	}
	if err := serveOn(*listen, *storeDir, *pool, *maxBatch, stdio{stdin, stdout}, stderr); err != nil {
		fmt.Fprintf(stderr, "snserve: %v\n", err)
		return 1
	}
	return 0
}

// serveOn runs the server until shutdown: one session over conn, or one
// per TCP connection with a listen address.
func serveOn(listen, storeDir string, pool, maxBatch int, conn io.ReadWriter, stderr io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := []serve.ServerOption{
		serve.WithPool(serve.NewPool(pool)),
		serve.WithMaxBatch(maxBatch),
	}
	if storeDir != "" {
		st, err := store.Open(filepath.Join(storeDir, "serve.jsonl"))
		if err != nil {
			return err
		}
		defer st.Close()
		if st.Recovered() > 0 {
			fmt.Fprintf(stderr, "snserve: store recovered (%d unreadable lines dropped)\n", st.Recovered())
		}
		fmt.Fprintf(stderr, "snserve: response cache %s (%d records)\n", st.Path(), st.Len())
		opts = append(opts, serve.WithCache(serve.NewCache(st)))
	}
	srv := serve.NewServer(opts...)

	if listen == "" {
		err := srv.ServeConn(ctx, conn)
		if errors.Is(err, serve.ErrShutdown) {
			err = nil
		}
		report(srv, stderr)
		return err
	}
	fmt.Fprintf(stderr, "snserve: listening on %s\n", listen)
	err := srv.ListenAndServe(ctx, listen)
	report(srv, stderr)
	return err
}

// report prints the deterministic service counters to stderr on exit, so a
// scripted run can assert cache effectiveness without a stats request.
func report(srv *serve.Server, stderr io.Writer) {
	st := srv.Stats()
	fmt.Fprintf(stderr, "snserve: %d sessions, %d requests, %d estimates (%d simulated, %d cache hits)\n",
		st.Sessions, st.Requests, st.Estimates, st.Simulated, st.CacheHits)
}
