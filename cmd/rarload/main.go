// Command rarload drives a rarserved instance with a deterministic
// hot/cold mix of matrix requests and reports client-side throughput
// (cells/s) and latency percentiles, plus the server's own /metrics
// snapshot. It is the load half of the serve-smoke harness: with
// -assert-dedup it fails unless the server demonstrably shared work
// across requests: its engine's memo hits plus its reply-memo hits are
// positive, and it simulated fewer cells than it served.
//
// Examples:
//
//	rarload -addr 127.0.0.1:8080 -requests 32 -concurrency 8 -hot 0.75
//	rarload -addr $ADDR -wait 10s -assert-dedup
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"rarsim/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "rarserved address (host:port)")
		requests    = flag.Int("requests", 32, "total matrix requests to send")
		concurrency = flag.Int("concurrency", 8, "concurrent client workers")
		n           = flag.Uint64("n", 20_000, "committed instructions per cell")
		benches     = flag.String("benches", "libquantum,mcf", "comma-separated benchmarks per request")
		schemes     = flag.String("schemes", "OoO,RAR", "comma-separated schemes per request")
		cores       = flag.String("cores", "baseline", "comma-separated core configs per request")
		hot         = flag.Float64("hot", 0.75, "fraction of requests repeating the shared hot matrix (the rest get unique seeds)")
		seed        = flag.Uint64("seed", 42, "base workload seed")
		wait        = flag.Duration("wait", 0, "poll /healthz this long for the server to come up before loading")
		assertDedup = flag.Bool("assert-dedup", false, "exit non-zero unless the server shared cells or replies across requests")
	)
	flag.Parse()
	base := "http://" + *addr

	if *wait > 0 {
		if err := waitReady(base, *wait); err != nil {
			fmt.Fprintln(os.Stderr, "rarload:", err)
			os.Exit(1)
		}
	}

	// The request mix is deterministic: an error-diffusion accumulator
	// spreads hot (repeated, dedupable) and cold (unique-seed) requests
	// evenly through the sequence, so every run with the same flags
	// offers the server the same dedup opportunity.
	template := serve.MatrixRequest{
		Cores:        splitList(*cores),
		Schemes:      splitList(*schemes),
		Benches:      splitList(*benches),
		Instructions: *n,
		Seed:         *seed,
	}
	reqs := make([]serve.MatrixRequest, *requests)
	var acc float64
	cold := uint64(0)
	for i := range reqs {
		reqs[i] = template
		acc += *hot
		if acc >= 1 {
			acc-- // hot: identical to the shared matrix
		} else {
			cold++
			reqs[i].Seed = *seed + cold // cold: a seed nobody else asks for
		}
	}
	cellsPer := len(template.Cores) * len(template.Schemes) * len(template.Benches)

	var (
		mu        sync.Mutex
		durations []time.Duration
		errs      []string
		cells     int
	)
	next := make(chan int)
	var wg sync.WaitGroup
	workers := *concurrency
	if workers < 1 {
		workers = 1
	}
	start := time.Now() //rarlint:allow determinism client-side load-test timing
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now() //rarlint:allow determinism client-side load-test timing
				got, err := postMatrix(base, reqs[i])
				d := time.Since(t0) //rarlint:allow determinism client-side load-test timing
				mu.Lock()
				durations = append(durations, d)
				if err != nil {
					errs = append(errs, fmt.Sprintf("request %d: %v", i, err))
				} else {
					cells += got
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < *requests; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start) //rarlint:allow determinism client-side load-test timing

	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	p := func(q int) time.Duration {
		if len(durations) == 0 {
			return 0
		}
		return durations[(len(durations)-1)*q/100]
	}
	fmt.Printf("requests: %d (%d hot / %d cold), %d cells each\n",
		*requests, *requests-int(cold), cold, cellsPer)
	fmt.Printf("elapsed: %v, cells served: %d (%.1f cells/s)\n",
		elapsed.Round(time.Millisecond), cells, float64(cells)/elapsed.Seconds())
	fmt.Printf("latency: p50 %v, p99 %v\n", p(50).Round(time.Microsecond), p(99).Round(time.Microsecond))

	snap, err := fetchMetrics(base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rarload: metrics:", err)
	} else {
		fmt.Printf("server: simulated %d, memo hits %d, reply hits %d, disk hits %d, err hits %d, p50 %.2fms, p99 %.2fms\n",
			snap.Engine.Simulated, snap.Engine.Hits, snap.HTTP.ReplyHits, snap.Engine.DiskHits, snap.Engine.ErrHits,
			snap.HTTP.P50Millis, snap.HTTP.P99Millis)
	}

	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "rarload:", e)
	}
	if len(errs) > 0 {
		os.Exit(1)
	}
	if *assertDedup {
		if snap == nil {
			fmt.Fprintln(os.Stderr, "rarload: cannot assert dedup without /metrics")
			os.Exit(1)
		}
		// A reply-memo hit answers a whole repeated request without the
		// engine, so it counts as sharing just as an engine hit does.
		offered := uint64(cells)
		if snap.Engine.Hits+snap.HTTP.ReplyHits == 0 || snap.Engine.Simulated >= offered {
			fmt.Fprintf(os.Stderr, "rarload: no cross-request dedup: simulated %d of %d served cells, %d memo hits, %d reply hits\n",
				snap.Engine.Simulated, offered, snap.Engine.Hits, snap.HTTP.ReplyHits)
			os.Exit(1)
		}
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func waitReady(base string, d time.Duration) error {
	deadline := time.Now().Add(d) //rarlint:allow determinism readiness polling deadline
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) { //rarlint:allow determinism readiness polling deadline
			return fmt.Errorf("server at %s not ready after %v: %v", base, d, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// postMatrix sends one request and returns the number of cells in the
// response.
func postMatrix(base string, req serve.MatrixRequest) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(base+"/matrix", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var mr serve.MatrixResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		return 0, err
	}
	return len(mr.Cells), nil
}

func fetchMetrics(base string) (*serve.Snapshot, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var snap serve.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
