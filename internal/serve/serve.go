// Package serve is the simulation-as-a-service layer: an HTTP facade
// over the memoizing sim.Engine. Clients POST (cores × schemes ×
// benches × options) matrix requests; the server decomposes them into
// cells and runs them through one shared engine and one shared bounded
// worker pool, so
//
//   - identical cells dedup *across concurrent requests* (the engine's
//     singleflight), two users asking for the baseline OoO row share one
//     simulation;
//   - total simulation concurrency is a server property (the pool), not
//     a per-request one — requests queue instead of oversubscribing;
//   - results revalidate by content: the ETag derives from the schema
//     hash and the cells' config hashes, so If-None-Match answers 304
//     without touching the cache or the pool (simulation results are
//     deterministic in the request identity);
//   - failing cells are answered 503 + Retry-After from the engine's
//     negative cache instead of re-simulating per request.
//
// Endpoints: POST /matrix, GET /metrics (JSON counters: engine, pool,
// HTTP, latency percentiles), GET /healthz.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rarsim/internal/config"
	"rarsim/internal/sim"
	"rarsim/internal/trace"
)

// Runner is the slice of *sim.Engine the server consumes; tests inject
// failing fakes through it.
type Runner interface {
	RunMatrixOn(pool *sim.Pool, cores []config.Core, schemes []config.Scheme, benches []trace.Benchmark, opt sim.Options) (*sim.ResultSet, error)
	Metrics() sim.Metrics
}

// Server handles matrix requests against one engine and one pool. Use
// New; the zero value is not usable.
type Server struct {
	// DrainTimeout bounds graceful shutdown: how long Serve waits for
	// in-flight requests (and the simulation cells they hold) after its
	// context is cancelled. Zero means 30s. Set before Serve.
	DrainTimeout time.Duration //rarlint:guardedby init

	engine Runner         //rarlint:guardedby init
	pool   *sim.Pool      //rarlint:guardedby init
	mux    *http.ServeMux //rarlint:guardedby init
	lat    latencyRing    //rarlint:guardedby init  internally locked

	requests    atomic.Uint64 //rarlint:guardedby atomic  POST /matrix requests accepted for processing
	okResponses atomic.Uint64 //rarlint:guardedby atomic  200s
	notModified atomic.Uint64 //rarlint:guardedby atomic  304s
	clientErrs  atomic.Uint64 //rarlint:guardedby atomic  4xx
	unavailable atomic.Uint64 //rarlint:guardedby atomic  503s (negative-cached cell failures)
	serverErrs  atomic.Uint64 //rarlint:guardedby atomic  other 5xx
	cellsServed atomic.Uint64 //rarlint:guardedby atomic  cells across all 200s
}

// New returns a server over engine, bounding all simulation work by
// pool (nil = unbounded; every request brings its own parallelism).
func New(engine Runner, pool *sim.Pool) *Server {
	s := &Server{engine: engine, pool: pool}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/matrix", s.handleMatrix)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until ctx is cancelled, then shuts
// down gracefully: the listener closes immediately, but in-flight
// requests — and the simulation cells they hold in the pool — drain to
// completion (bounded by DrainTimeout) so no accepted request is ever
// dropped mid-simulation.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	timeout := s.DrainTimeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return hs.Shutdown(drainCtx)
}

// handleMatrix is POST /matrix: validate, revalidate (ETag), simulate,
// respond.
func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	// Host-side request timing for the /metrics latency percentiles
	// (every outcome counts — queueing shows up in errors too); never
	// enters simulated state.
	start := time.Now()                                //rarlint:allow determinism host-side request latency metric
	defer func() { s.lat.record(time.Since(start)) }() //rarlint:allow determinism host-side request latency metric
	if r.Method != http.MethodPost {
		s.clientErrs.Add(1)
		writeError(w, http.StatusMethodNotAllowed, "POST a MatrixRequest JSON body")
		return
	}
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.clientErrs.Add(1)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Sprintf("bad request body: %v", err))
		return
	}
	spec, err := resolve(req)
	if err != nil {
		s.clientErrs.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.requests.Add(1)

	etag := sim.MatrixETag(spec.keys)
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		// The tag is derived from the request identity and results are
		// deterministic in it, so the client's copy is current by
		// construction — no cache lookup, no simulation.
		s.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}

	rs, err := s.engine.RunMatrixOn(s.pool, spec.cores, spec.schemes, spec.benches, spec.opt)
	if err != nil {
		var fce *sim.FailedCellError
		if errors.As(err, &fce) {
			// The engine's negative cache is holding a recent failure:
			// tell clients when retrying could possibly help.
			s.unavailable.Add(1)
			secs := int64(fce.RetryAfter/time.Second) + 1
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			writeError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		s.serverErrs.Add(1)
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	cells, err := spec.cells(rs)
	if err != nil {
		s.serverErrs.Add(1)
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.okResponses.Add(1)
	s.cellsServed.Add(uint64(len(cells)))
	writeJSON(w, http.StatusOK, MatrixResponse{
		SchemaHash: sim.SchemaHash(),
		ETag:       etag,
		Cells:      cells,
	})
}

// Snapshot is the GET /metrics body: engine counters, pool gauges and
// HTTP-level accounting. Warm/cold behaviour reads directly off the
// engine block — Simulated counts cold cells, Hits/DiskHits warm ones.
type Snapshot struct {
	Engine EngineCounters `json:"engine"`
	Pool   PoolGauges     `json:"pool"`
	HTTP   HTTPCounters   `json:"http"`
}

// EngineCounters mirrors sim.Metrics for the wire.
type EngineCounters struct {
	Simulated   uint64  `json:"simulated"`
	Hits        uint64  `json:"hits"`
	DiskHits    uint64  `json:"diskHits"`
	ErrHits     uint64  `json:"errHits"`
	Errors      uint64  `json:"errors"`
	Unique      int     `json:"unique"`
	SimSeconds  float64 `json:"simSeconds"`
	DiskEntries int     `json:"diskEntries"`
	DiskBytes   int64   `json:"diskBytes"`
	Evicted     uint64  `json:"evicted"`
}

// PoolGauges reports the shared worker pool: queue depth vs in-flight
// simulation work.
type PoolGauges struct {
	Size   int `json:"size"`
	Active int `json:"active"`
	Queued int `json:"queued"`
}

// HTTPCounters reports request-level accounting and latency.
type HTTPCounters struct {
	MatrixRequests uint64  `json:"matrixRequests"`
	OK             uint64  `json:"ok"`
	NotModified    uint64  `json:"notModified"`
	ClientErrors   uint64  `json:"clientErrors"`
	Unavailable    uint64  `json:"unavailable"`
	ServerErrors   uint64  `json:"serverErrors"`
	CellsServed    uint64  `json:"cellsServed"`
	P50Millis      float64 `json:"p50Millis"`
	P99Millis      float64 `json:"p99Millis"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	m := s.engine.Metrics()
	p50, p99 := s.lat.percentiles()
	writeJSON(w, http.StatusOK, Snapshot{
		Engine: EngineCounters{
			Simulated:   m.Simulated,
			Hits:        m.Hits,
			DiskHits:    m.DiskHits,
			ErrHits:     m.ErrHits,
			Errors:      m.Errors,
			Unique:      m.Unique,
			SimSeconds:  m.SimTime.Seconds(),
			DiskEntries: m.DiskEntries,
			DiskBytes:   m.DiskBytes,
			Evicted:     m.Evicted,
		},
		Pool: PoolGauges{
			Size:   s.pool.Size(),
			Active: s.pool.Active(),
			Queued: s.pool.Queued(),
		},
		HTTP: HTTPCounters{
			MatrixRequests: s.requests.Load(),
			OK:             s.okResponses.Load(),
			NotModified:    s.notModified.Load(),
			ClientErrors:   s.clientErrs.Load(),
			Unavailable:    s.unavailable.Load(),
			ServerErrors:   s.serverErrs.Load(),
			CellsServed:    s.cellsServed.Load(),
			P50Millis:      float64(p50) / float64(time.Millisecond),
			P99Millis:      float64(p99) / float64(time.Millisecond),
		},
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// etagMatches implements the If-None-Match comparison: a comma-separated
// list of entity tags, or "*" for "any". RFC 9110 §13.1.2 makes it a weak
// comparison, so a candidate matches with or without a W/ prefix (which
// compressing proxies add to the strong tags this server sends).
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimPrefix(strings.TrimSpace(candidate), "W/")
		if candidate == "*" || candidate == etag {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The response writer's errors mirror the client connection's state;
	// a vanished client is not a server failure.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
