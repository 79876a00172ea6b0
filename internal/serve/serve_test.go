package serve

// End-to-end tests over httptest: real engine, real simulations (tiny
// cells), concurrent requests. Run under -race via `make ci`, these are
// the server's concurrency contract: cross-request dedup, ETag
// revalidation, negative-cache 503s, graceful drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rarsim/internal/config"
	"rarsim/internal/sim"
	"rarsim/internal/trace"
)

// testRequest is a 4-cell matrix small enough to simulate in
// milliseconds: 1 core × 2 schemes × 2 benches.
func testRequest() MatrixRequest {
	return MatrixRequest{
		Cores:        []string{"baseline"},
		Schemes:      []string{"OoO", "RAR"},
		Benches:      []string{"libquantum", "mcf"},
		Instructions: 1500,
		Warmup:       300,
		Seed:         7,
	}
}

func newTestServer(t *testing.T) (*Server, *sim.Engine, *httptest.Server) {
	t.Helper()
	eng := sim.NewEngine()
	srv := New(eng, sim.NewPool(4))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, eng, ts
}

// post sends req as JSON to url and returns status, headers and body.
func post(t *testing.T, url string, req MatrixRequest, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// TestMatrixDedupAcrossRequests fires concurrent identical matrix POSTs:
// every request gets the full result, but the engine must simulate each
// unique cell exactly once — the in-flight singleflight and memo cache
// span requests because they live in the shared engine. A /metrics
// poller runs alongside, so under -race the snapshot's reads of the
// engine counters and the latency ring are checked against the
// requests' writes.
func TestMatrixDedupAcrossRequests(t *testing.T) {
	_, eng, ts := newTestServer(t)
	req := testRequest()

	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	const clients = 4
	bodies := make([][]byte, clients)
	statuses := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _, bodies[i] = post(t, ts.URL+"/matrix", req, nil)
		}(i)
	}
	wg.Wait()
	close(stop)
	<-polled

	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("client %d: status %d, body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("client %d got a different body than client 0", i)
		}
	}
	var resp MatrixResponse
	if err := json.Unmarshal(bodies[0], &resp); err != nil {
		t.Fatal(err)
	}
	uniqueCells := uint64(len(req.Schemes) * len(req.Benches))
	if len(resp.Cells) != int(uniqueCells) {
		t.Fatalf("response has %d cells, want %d", len(resp.Cells), uniqueCells)
	}
	for _, c := range resp.Cells {
		if c.Committed != req.Instructions || c.IPC <= 0 {
			t.Errorf("cell %s/%s/%s: committed=%d ipc=%v", c.Core, c.Scheme, c.Bench, c.Committed, c.IPC)
		}
	}
	m := eng.Metrics()
	if m.Simulated != uniqueCells {
		t.Errorf("engine simulated %d cells for %d requests, want %d (cross-request dedup)",
			m.Simulated, clients, uniqueCells)
	}
	if m.Hits != uniqueCells*(clients-1) {
		t.Errorf("hits = %d, want %d", m.Hits, uniqueCells*(clients-1))
	}
}

// TestETagRevalidation: the response carries a strong ETag; replaying
// the request with If-None-Match returns 304 with no body and no new
// simulation; a different request misses.
func TestETagRevalidation(t *testing.T) {
	_, eng, ts := newTestServer(t)
	req := testRequest()

	status, hdr, _ := post(t, ts.URL+"/matrix", req, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	etag := hdr.Get("ETag")
	if etag == "" {
		t.Fatal("200 response carries no ETag")
	}
	simmed := eng.Metrics().Simulated

	status, hdr, body := post(t, ts.URL+"/matrix", req, map[string]string{"If-None-Match": etag})
	if status != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", status)
	}
	if len(body) != 0 {
		t.Errorf("304 carried a body: %q", body)
	}
	if hdr.Get("ETag") != etag {
		t.Errorf("304 ETag %q != original %q", hdr.Get("ETag"), etag)
	}
	if m := eng.Metrics(); m.Simulated != simmed || m.Hits != 0 {
		t.Errorf("revalidation touched the engine: %+v", m)
	}

	// A changed request must not match the old tag.
	req2 := req
	req2.Seed++
	status, hdr2, _ := post(t, ts.URL+"/matrix", req2, map[string]string{"If-None-Match": etag})
	if status != http.StatusOK {
		t.Fatalf("changed request status %d, want 200", status)
	}
	if hdr2.Get("ETag") == etag {
		t.Error("changed request reused the old ETag")
	}

	// If-None-Match compares weakly (RFC 9110 §13.1.2): a W/ tag, as a
	// compressing proxy rewrites it, and a tag inside a list both match.
	for _, inm := range []string{
		"W/" + etag,
		`"0000000000000000", ` + etag,
		`"0000000000000000",W/` + etag,
	} {
		status, _, _ := post(t, ts.URL+"/matrix", req, map[string]string{"If-None-Match": inm})
		if status != http.StatusNotModified {
			t.Errorf("If-None-Match %s: status %d, want 304", inm, status)
		}
	}
	if m := eng.Metrics(); m.Hits != 0 {
		t.Errorf("weak revalidations touched the engine: %+v", m)
	}
}

// TestValidation: unknown names are 400s that list the valid
// vocabulary; oversized matrices and junk bodies are 400s too, and an
// oversized body is a 413.
func TestValidation(t *testing.T) {
	_, eng, ts := newTestServer(t)

	req := testRequest()
	req.Benches = []string{"no-such-bench"}
	status, _, body := post(t, ts.URL+"/matrix", req, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown bench: status %d", status)
	}
	if !bytes.Contains(body, []byte("no-such-bench")) || !bytes.Contains(body, []byte("libquantum")) {
		t.Errorf("error %s does not name the bad bench and the valid ones", body)
	}

	req = testRequest()
	req.Schemes = []string{"RAR", "WRONG"}
	if status, _, _ = post(t, ts.URL+"/matrix", req, nil); status != http.StatusBadRequest {
		t.Errorf("unknown scheme: status %d", status)
	}
	req = testRequest()
	req.Cores = []string{"core-99"}
	if status, _, _ = post(t, ts.URL+"/matrix", req, nil); status != http.StatusBadRequest {
		t.Errorf("unknown core: status %d", status)
	}
	// The default warmup (instructions/5) would wrap the cell's total.
	req = testRequest()
	req.Instructions, req.Warmup = math.MaxUint64, 0
	if status, _, _ = post(t, ts.URL+"/matrix", req, nil); status != http.StatusBadRequest {
		t.Errorf("overflowing instruction count: status %d", status)
	}
	req = testRequest()
	req.Instructions, req.Warmup = maxCellInsts, 1
	if status, _, _ = post(t, ts.URL+"/matrix", req, nil); status != http.StatusBadRequest {
		t.Errorf("instruction count over the per-cell cap: status %d", status)
	}

	// A list longer than any valid matrix is refused before its names
	// are looked up.
	req = testRequest()
	req.Benches = make([]string, maxCells+1)
	for i := range req.Benches {
		req.Benches[i] = "mcf"
	}
	status, _, body = post(t, ts.URL+"/matrix", req, nil)
	if status != http.StatusBadRequest || !bytes.Contains(body, []byte("benches")) {
		t.Errorf("%d benches: status %d, body %s", len(req.Benches), status, body)
	}

	postRaw := func(body []byte) int {
		resp, err := http.Post(ts.URL+"/matrix", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	if status := postRaw([]byte("{not json")); status != http.StatusBadRequest {
		t.Errorf("junk body: status %d", status)
	}
	// A body over the cap is refused however valid its start.
	huge := []byte(`{"benches":[`)
	for len(huge) <= maxBodyBytes {
		huge = append(huge, `"mcf",`...)
	}
	huge = append(huge, `"mcf"]}`...)
	if status := postRaw(huge); status != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte body: status %d, want 413", len(huge), status)
	}

	if m := eng.Metrics(); m.Simulated != 0 || m.Errors != 0 {
		t.Errorf("validation failures reached the engine: %+v", m)
	}
}

// failingRunner fakes an engine whose matrix is held in the negative
// cache: every run fails with a FailedCellError.
type failingRunner struct {
	retryAfter time.Duration
}

func (f *failingRunner) RunMatrixOn(*sim.Pool, []config.Core, []config.Scheme, []trace.Benchmark, sim.Options) (*sim.ResultSet, error) {
	fce := &sim.FailedCellError{Err: errors.New("boom"), RetryAfter: f.retryAfter}
	return nil, fmt.Errorf("sim: 1 cell(s) failed: %w", fce)
}

func (f *failingRunner) Metrics() sim.Metrics { return sim.Metrics{} }

// TestFailedCellIs503WithRetryAfter: a FailedCellError anywhere in the
// matrix error chain surfaces as 503 + Retry-After, the HTTP face of
// the engine's negative cache.
func TestFailedCellIs503WithRetryAfter(t *testing.T) {
	srv := New(&failingRunner{retryAfter: 42 * time.Second}, sim.NewPool(1))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	status, hdr, body := post(t, ts.URL+"/matrix", testRequest(), nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", status, body)
	}
	if got := hdr.Get("Retry-After"); got != "43" {
		t.Errorf("Retry-After = %q, want %q (ceil of 42s)", got, "43")
	}
	if !bytes.Contains(body, []byte("boom")) {
		t.Errorf("error body %s does not carry the cause", body)
	}
}

// slowRunner gates RunMatrixOn so the test can hold a request in flight
// across a shutdown.
type slowRunner struct {
	*sim.Engine
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (s *slowRunner) RunMatrixOn(p *sim.Pool, cores []config.Core, schemes []config.Scheme, benches []trace.Benchmark, opt sim.Options) (*sim.ResultSet, error) {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return s.Engine.RunMatrixOn(p, cores, schemes, benches, opt)
}

// TestGracefulShutdownDrains: cancelling Serve's context while a matrix
// request is mid-simulation must not drop the response — the listener
// closes, the in-flight request completes with 200, and Serve returns
// cleanly.
func TestGracefulShutdownDrains(t *testing.T) {
	runner := &slowRunner{
		Engine:  sim.NewEngine(),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	srv := New(runner, sim.NewPool(2))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		status, _, body := post(t, url+"/matrix", testRequest(), nil)
		done <- result{status, body}
	}()

	<-runner.entered // the request is inside the (gated) simulation
	cancel()         // begin graceful shutdown while it is in flight
	time.Sleep(50 * time.Millisecond)
	close(runner.release)

	res := <-done
	if res.status != http.StatusOK {
		t.Errorf("in-flight request during shutdown: status %d, body %s", res.status, res.body)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Errorf("Serve returned %v, want nil after clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

// TestMetricsEndpoint: /metrics reflects engine and HTTP activity, and
// shows the cold→warm split after a repeated request.
func TestMetricsEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t)
	req := testRequest()
	for i := 0; i < 2; i++ {
		if status, _, body := post(t, ts.URL+"/matrix", req, nil); status != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, status, body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d err %v", resp.StatusCode, err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics body %s: %v", data, err)
	}
	cells := uint64(len(req.Schemes) * len(req.Benches))
	if snap.Engine.Simulated != cells {
		t.Errorf("simulated = %d, want %d", snap.Engine.Simulated, cells)
	}
	if snap.Engine.Hits != cells {
		t.Errorf("hits = %d, want %d (second request fully warm)", snap.Engine.Hits, cells)
	}
	if snap.HTTP.MatrixRequests != 2 || snap.HTTP.OK != 2 || snap.HTTP.CellsServed != 2*cells {
		t.Errorf("http counters = %+v", snap.HTTP)
	}
	if snap.HTTP.P50Millis <= 0 || snap.HTTP.P99Millis < snap.HTTP.P50Millis {
		t.Errorf("latency percentiles p50=%v p99=%v", snap.HTTP.P50Millis, snap.HTTP.P99Millis)
	}
	if snap.Pool.Size != 4 {
		t.Errorf("pool size = %d, want 4", snap.Pool.Size)
	}
}

// BenchmarkWarmMatrix measures one warm 4-cell POST /matrix through
// Server.Handler: every cell is a memory hit, so the time is the
// request's own path (decode, resolve, ETag, engine lookup, encode).
func BenchmarkWarmMatrix(b *testing.B) {
	h := New(sim.NewEngine(), sim.NewPool(2)).Handler()
	body, err := json.Marshal(testRequest())
	if err != nil {
		b.Fatal(err)
	}
	request := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/matrix", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	request() // simulates the four cells
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
}
