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
//   - a failed cell is simulated once: the engine remembers its error as
//     it remembers a result, and every request that names the cell gets
//     a 500 carrying that error;
//   - a POST whose body is byte-identical to one already answered 200 is
//     replayed from a bounded reply memo (memo.go), without decoding,
//     resolving, running or encoding anything.
//
// Endpoints: POST /matrix, GET /metrics (JSON counters: engine, pool,
// HTTP and reply memo, latency percentiles), GET /healthz.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
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
	memo   replyMemo      //rarlint:guardedby init  internally locked

	requests    atomic.Uint64 //rarlint:guardedby atomic  POST /matrix requests accepted for processing
	okResponses atomic.Uint64 //rarlint:guardedby atomic  200s
	notModified atomic.Uint64 //rarlint:guardedby atomic  304s
	clientErrs  atomic.Uint64 //rarlint:guardedby atomic  4xx
	serverErrs  atomic.Uint64 //rarlint:guardedby atomic  5xx
	cellsServed atomic.Uint64 //rarlint:guardedby atomic  cells across all 200s
	replyHits   atomic.Uint64 //rarlint:guardedby atomic  200s and 304s answered from the reply memo
}

// New returns a server over engine, bounding all simulation work by
// pool (nil = unbounded; every request brings its own parallelism).
func New(engine Runner, pool *sim.Pool) *Server {
	s := &Server{engine: engine, pool: pool, memo: replyMemo{limit: replyMemoBytes}}
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

// handleMatrix is POST /matrix: replay a remembered reply, or validate,
// revalidate (ETag), simulate, respond and remember the reply.
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
	in := getBuf()
	defer putBuf(in)
	if _, err := in.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		s.badBody(w, err)
		return
	}
	body := in.Bytes()
	if rep, ok := s.memo.get(body); ok {
		s.requests.Add(1)
		s.replyHits.Add(1)
		s.answer(w, r, rep.body(), rep.etag(), int(rep.cells))
		return
	}
	req, err := decodeRequest(bytes.NewReader(body))
	if err != nil {
		s.badBody(w, err)
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
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		// The tag is derived from the request identity and results are
		// deterministic in it, so the client's copy is current by
		// construction — no cache lookup, no simulation.
		w.Header().Set("ETag", etag)
		s.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}

	rs, err := s.engine.RunMatrixOn(s.pool, spec.cores, spec.schemes, spec.benches, spec.opt)
	if err != nil {
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
	out := getBuf()
	defer putBuf(out)
	err = json.NewEncoder(out).Encode(MatrixResponse{
		SchemaHash: sim.SchemaHash(),
		ETag:       etag,
		Cells:      cells,
	})
	if err != nil {
		s.serverErrs.Add(1)
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.memo.put(body, out.Bytes(), etag, len(cells))
	s.answer(w, r, out.Bytes(), etag, len(cells))
}

// bufPool recycles the buffers a request reads its body into and
// encodes its reply into. Neither outlives the request: the memo and
// the response writer copy what they keep.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// putBuf returns b to the pool unless a large matrix grew it, so that
// the pool does not keep such buffers alive.
func putBuf(b *bytes.Buffer) {
	if b.Cap() <= 64<<10 {
		bufPool.Put(b)
	}
}

// badBody answers a body that could not be read or decoded: 413 when it
// is over the size cap, 400 otherwise.
func (s *Server) badBody(w http.ResponseWriter, err error) {
	s.clientErrs.Add(1)
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Sprintf("bad request body: %v", err))
}

// answer sends a 200 reply of cells cells, or 304 when the request's
// If-None-Match names its ETag.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, body []byte, etag string, cells int) {
	h := w.Header()
	h.Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		s.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.okResponses.Add(1)
	s.cellsServed.Add(uint64(cells))
	h.Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// A vanished client is not a server failure (see writeJSON).
	_, _ = w.Write(body)
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

// HTTPCounters reports request-level accounting and latency. A request
// answered from the reply memo counts like any other, and also in
// ReplyHits.
type HTTPCounters struct {
	MatrixRequests uint64  `json:"matrixRequests"`
	OK             uint64  `json:"ok"`
	NotModified    uint64  `json:"notModified"`
	ClientErrors   uint64  `json:"clientErrors"`
	ServerErrors   uint64  `json:"serverErrors"`
	CellsServed    uint64  `json:"cellsServed"`
	P50Millis      float64 `json:"p50Millis"`
	P99Millis      float64 `json:"p99Millis"`
	// ReplyHits counts the 200s and 304s answered from the reply memo;
	// ReplyEntries and ReplyBytes are what it holds now.
	ReplyHits    uint64 `json:"replyHits"`
	ReplyEntries int    `json:"replyEntries"`
	ReplyBytes   int    `json:"replyBytes"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.snapshot())
}

func (s *Server) snapshot() Snapshot {
	m := s.engine.Metrics()
	p50, p99 := s.lat.percentiles()
	entries, held := s.memo.gauges()
	return Snapshot{
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
			ServerErrors:   s.serverErrs.Load(),
			CellsServed:    s.cellsServed.Load(),
			P50Millis:      float64(p50) / float64(time.Millisecond),
			P99Millis:      float64(p99) / float64(time.Millisecond),
			ReplyHits:      s.replyHits.Load(),
			ReplyEntries:   entries,
			ReplyBytes:     held,
		},
	}
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
