// Command rarserved serves the simulator over HTTP: clients POST
// (cores × schemes × benches × options) matrices to /matrix and the
// server answers from one shared memoizing engine, so concurrent
// clients asking for overlapping cells share simulations, and replays a
// repeated request body's reply from a bounded memo. /metrics exposes
// the engine's warm/cold counters, the reply memo's hits and size, the
// worker-pool gauges and request-latency percentiles; /healthz answers
// readiness probes.
//
// Examples:
//
//	rarserved -addr :8080 -cache /var/cache/rarsim
//	rarserved -addr 127.0.0.1:0 -workers 4
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rarsim/internal/serve"
	"rarsim/internal/sim"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free one)")
		cacheDir   = flag.String("cache", "", "directory to persist simulated cells into (empty: memory only)")
		workers    = flag.Int("workers", 0, "server-wide simulation concurrency (0 = GOMAXPROCS)")
		maxBytes   = flag.Int64("max-cache-bytes", 0, "evict least-recently-used cached cells beyond this many bytes on disk (0 = unbounded)")
		maxEntries = flag.Int("max-cache-entries", 0, "evict least-recently-used cached cells beyond this count (0 = unbounded)")
		drain      = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound for in-flight requests")
	)
	flag.Parse()

	var (
		engine *sim.Engine
		err    error
	)
	if *cacheDir != "" {
		engine, err = sim.NewPersistentEngine(*cacheDir)
		check(err)
	} else {
		engine = sim.NewEngine()
	}
	if *maxBytes > 0 || *maxEntries > 0 {
		engine.SetDiskBudget(*maxBytes, *maxEntries)
	}

	srv := serve.New(engine, sim.NewPool(*workers))
	srv.DrainTimeout = *drain

	ln, err := net.Listen("tcp", *addr)
	check(err)
	// The resolved address matters when the flag asked for port 0; the
	// smoke harness parses this line to find the server.
	fmt.Printf("listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	check(srv.Serve(ctx, ln))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rarserved:", err)
		os.Exit(1)
	}
}
