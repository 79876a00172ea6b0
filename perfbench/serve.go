package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"rarsim/internal/config"
	"rarsim/internal/metrics"
	"rarsim/internal/serve"
	"rarsim/internal/sim"
	"rarsim/internal/trace"
)

// The serve workload: an in-process serve.Server over a persistent
// sim.Engine, driven by a closed loop of serveClients clients that call
// its handler directly (no sockets) and take the next request from one
// shared queue, as cmd/rarload's workers do.
//
// The traffic is cmd/rarload's, the repository's load generator for
// rarserved, at its defaults: every request asks for one template matrix
// (the baseline core, {OoO, RAR} × {libquantum, mcf}, 20k instructions
// and the server's default warmup). A hot share of 0.75 repeats it at the
// base seed; every other request carries a seed no other request uses.
// rarload's error-diffusion accumulator spreads the two evenly through
// the sequence.
//
// The run goes in epochs until the measuring time is spent. Every epoch
// starts from an empty cache directory and has three phases:
//
//   - cold: rarload's default run of 32 requests, 24 hot and 8 cold, so
//     the hot matrix and every cold one are simulated and written to
//     disk;
//   - warm: serveWarm more requests continuing the same mix, except that
//     a cold position repeats the cold phase's cold matrices in turn
//     instead of taking a new seed, so every warm request is a memory
//     hit. A share serveRevalidate of them sends If-None-Match with the
//     matrix's ETag and is answered 304. rarload sends no revalidations,
//     so that share is this benchmark's assumption, not a measured mix;
//     the warm latency metrics count only the 200 replies, which it does
//     not move;
//   - restart: serveRestarts times, a fresh engine and server over the
//     same directory serve every matrix again from disk.
//
// Each client calls its own serve.Server over the one shared engine and
// pool. A Server adds only counters and a latency ring of its own, and
// this lets a traced epoch's timed Runner see one client's calls, one at
// a time, so that every Runner span belongs to exactly one request.
const (
	serveInsts      = 20_000         // rarload -n
	serveWarmup     = serveInsts / 5 // the server's default warmup
	serveHot        = 0.75           // rarload -hot
	serveColdReqs   = 32             // rarload -requests
	serveClients    = 2
	servePool       = 2
	serveWarm       = 1280
	serveRevalidate = 0.25
	serveRestarts   = 2
)

// serveReq is one request of an epoch: the matrix it asks for (0 is the
// hot matrix, k ≥ 1 the k-th cold one) and whether it revalidates.
type serveReq struct {
	matrix     int
	revalidate bool
}

// spread marks a share of n positions, spread evenly by the
// error-diffusion accumulator cmd/rarload uses for its hot share.
func spread(n int, share float64) []bool {
	out := make([]bool, n)
	var acc float64
	for i := range out {
		acc += share
		if acc >= 1 {
			acc--
			out[i] = true
		}
	}
	return out
}

// serveTraffic returns an epoch's cold and warm requests and the number
// of distinct matrices they ask for. The sequence is the same for every
// seed; the seed picks the matrices' trace seeds (matrixRequest).
func serveTraffic() (cold, warm []serveReq, matrices int) {
	hot := spread(serveColdReqs+serveWarm, serveHot)
	coldMatrices := 0
	for _, h := range hot[:serveColdReqs] {
		r := serveReq{}
		if !h {
			coldMatrices++
			r.matrix = coldMatrices
		}
		cold = append(cold, r)
	}
	revalidate := spread(serveWarm, serveRevalidate)
	repeats := 0
	for j, h := range hot[serveColdReqs:] {
		r := serveReq{revalidate: revalidate[j]}
		if !h {
			r.matrix = 1 + repeats%coldMatrices
			repeats++
		}
		warm = append(warm, r)
	}
	return cold, warm, 1 + coldMatrices
}

// cellsPerMatrix is the number of cells in every matrix of the traffic.
const cellsPerMatrix = 4

// matrixRequest returns matrix k's request: rarload's template at seed
// base+k, which is the hot matrix for k = 0 and a cold one otherwise.
func matrixRequest(seed uint64, k int) serve.MatrixRequest {
	return serve.MatrixRequest{
		Cores:        []string{"baseline"},
		Schemes:      []string{config.OoO.Name, config.RAR.Name},
		Benches:      []string{"libquantum", "mcf"},
		Instructions: serveInsts,
		Seed:         seed + uint64(k),
	}
}

// reply is one handled request. A warm reply drops its body once it has
// been checked; size keeps its length.
type reply struct {
	status     int
	etag       string
	body       []byte
	size       int
	start, end time.Time
}

func post(h http.Handler, body []byte, ifNoneMatch string) reply {
	req := httptest.NewRequest(http.MethodPost, "/matrix", bytes.NewReader(body))
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	start := now()
	h.ServeHTTP(rec, req)
	end := now()
	b := rec.Body.Bytes()
	return reply{status: rec.Code, etag: rec.Header().Get("ETag"), body: b, size: len(b), start: start, end: end}
}

// timedRunner is the serve.Runner a traced epoch puts in front of the
// engine, one per client's server. It times every RunMatrixOn call and
// samples the pool's queue depth at each call's entry and exit. Only its
// client's goroutine calls it, one request at a time, so its last call is
// that of the client's current request.
type timedRunner struct {
	eng       *sim.Engine
	last      *runnerCall
	queuedMax int
}

type runnerCall struct{ start, end time.Time }

func (r *timedRunner) RunMatrixOn(pool *sim.Pool, cores []config.Core, schemes []config.Scheme, benches []trace.Benchmark, opt sim.Options) (*sim.ResultSet, error) {
	q0 := pool.Queued()
	start := now()
	rs, err := r.eng.RunMatrixOn(pool, cores, schemes, benches, opt)
	end := now()
	r.queuedMax = max(r.queuedMax, q0, pool.Queued())
	r.last = &runnerCall{start, end}
	return rs, err
}

func (r *timedRunner) Metrics() sim.Metrics { return r.eng.Metrics() }

// take removes and returns the last call, nil if the request did not
// reach the engine.
func (r *timedRunner) take() *runnerCall {
	c := r.last
	r.last = nil
	return c
}

// serveTracer collects a traced serve run's spans and counters. Only the
// run's main goroutine touches it, between phases.
type serveTracer struct {
	rec                            *recorder
	runners                        []*timedRunner
	engines                        []sim.Metrics
	diskBytes                      int64
	setups, restarts, coldRates    []float64
	status200, status304, bytesOut int
}

// serveEpoch is one epoch's measurements. warm holds the latencies of the
// warm phase's 200 replies.
type serveEpoch struct {
	coldRate, coldCells float64
	warm, setups        []float64
}

// serveRun carries one run's state across epochs.
type serveRun struct {
	o          options
	dir        string
	res        *result
	cold, warm []serveReq
	matrices   int
	// ref holds epoch 0's first cold reply of every matrix, the body
	// every later reply of that matrix must equal.
	ref []reply
}

func runServe(o options) (*result, error) {
	work := filepath.Join(".bench_build", fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	s := &serveRun{o: o, dir: work, res: newResult()}
	s.cold, s.warm, s.matrices = serveTraffic()
	var tr *serveTracer
	if o.traced {
		tr = &serveTracer{rec: newRecorder()}
	}
	var rates, cellRates, p50s, p99s, setups []float64
	start := now()
	// A traced run alternates untraced and traced epochs, so the tracing
	// overhead is measured within one run; it runs at least one of each.
	for e := 0; o.more(e, start) || (tr != nil && e < 2); e++ {
		var t *serveTracer
		if tr != nil && e%2 == 1 {
			t = tr
		}
		ep, err := s.epoch(e, t)
		if err != nil {
			return nil, err
		}
		if t != nil {
			t.coldRates = append(t.coldRates, ep.coldRate)
			t.setups = append(t.setups, ep.setups...)
			continue
		}
		rates = append(rates, ep.coldRate)
		cellRates = append(cellRates, ep.coldCells)
		p50s = append(p50s, median(ep.warm))
		p99s = append(p99s, percentile(ep.warm, 0.99))
		setups = append(setups, ep.setups...)
	}
	res := s.res
	ok := 0
	for _, w := range s.warm {
		if !w.revalidate {
			ok++
		}
	}
	res.note("%d untraced epochs of %d cold requests over %d matrices × %d cells (%d+%d instructions each) and %d warm requests, %d of them 200s with %d beyond each p99",
		len(rates), len(s.cold), s.matrices, cellsPerMatrix, serveWarmup, serveInsts, len(s.warm), ok, samplesBeyond(ok, 0.99))
	if tr != nil {
		tr.finish(res, median(rates))
		res.values["serve.cold_cells_per_s"] = median(cellRates)
		res.values["serve.warm_p99_ms"] = median(p99s)
		return res, tr.rec.write(o.spans, "serve", o.seed)
	}
	res.values["sim_insts_per_s"] = median(rates)
	res.values["latency_p50_ms"] = median(p50s)
	res.values["setup_s"] = median(setups)
	res.values["max_rss_mb"] = maxRSSMB()
	return res, nil
}

// epoch runs one cold/warm/restart epoch in a fresh cache directory. t
// is non-nil for a traced epoch.
func (s *serveRun) epoch(e int, t *serveTracer) (serveEpoch, error) {
	var ep serveEpoch
	dir := filepath.Join(s.dir, fmt.Sprintf("epoch-%d", e))
	defer os.RemoveAll(dir)
	eng, err := sim.NewPersistentEngine(dir)
	if err != nil {
		return ep, err
	}
	hs, runners := s.servers(eng, t, serveClients)

	// Cold. The heap is collected first so one epoch's garbage is not
	// charged to the next.
	cold := make([]reply, len(s.cold))
	coldCalls := make([]*runnerCall, len(s.cold))
	runtime.GC()
	cpu0, wall0 := cpuTime(), now()
	drive(len(s.cold), func(c, i int) {
		cold[i] = post(hs[c], s.body(s.cold[i].matrix), "")
		if t != nil {
			coldCalls[i] = runners[c].take()
		}
	})
	cpu, wall := cpuTime()-cpu0, since(wall0)
	m := eng.Metrics()
	simulated := float64(m.Simulated)
	ep.coldRate = metrics.Ratio(simulated*(serveInsts+serveWarmup), cpu.Seconds())
	ep.coldCells = metrics.Ratio(simulated, wall.Seconds())
	problems := s.checkCold(e, cold)
	if want := uint64(s.matrices * cellsPerMatrix); m.Simulated != want {
		last := len(problems) - 1
		problems[last] = append(problems[last], fmt.Sprintf("serve epoch %d: %d cells simulated in the cold phase, want %d", e, m.Simulated, want))
	}
	s.ops(problems)
	s.trace(t, fmt.Sprintf("e%d/cold", e), cold, coldCalls)

	// Warm, on a collected heap like the cold phase.
	warm := make([]reply, len(s.warm))
	warmCalls := make([]*runnerCall, len(s.warm))
	problems = make([][]string, len(s.warm))
	runtime.GC()
	drive(len(s.warm), func(c, i int) {
		w := s.warm[i]
		inm := ""
		if w.revalidate {
			inm = s.ref[w.matrix].etag
		}
		r := post(hs[c], s.body(w.matrix), inm)
		if t != nil {
			warmCalls[i] = runners[c].take()
		}
		problems[i] = s.checkWarm(w, r)
		r.body = nil
		warm[i] = r
	})
	s.ops(problems)
	for i, r := range warm {
		if !s.warm[i].revalidate {
			ep.warm = append(ep.warm, ms(r.end.Sub(r.start)))
		}
	}
	s.trace(t, fmt.Sprintf("e%d/warm", e), warm, warmCalls)
	if t != nil {
		m := eng.Metrics()
		t.engines = append(t.engines, m)
		t.diskBytes += m.DiskBytes
	}

	// Restart: fresh engines over the populated directory, one client
	// asking for every matrix in turn.
	for i := 0; i < serveRestarts; i++ {
		t0 := now()
		eng2, err := sim.NewPersistentEngine(dir)
		if err != nil {
			return ep, err
		}
		hs2, runners2 := s.servers(eng2, t, 1)
		setup := since(t0)
		ep.setups = append(ep.setups, setup.Seconds())
		replies := make([]reply, s.matrices)
		calls := make([]*runnerCall, s.matrices)
		problems := make([][]string, s.matrices)
		for k := range replies {
			replies[k] = post(hs2[0], s.body(k), "")
			if t != nil {
				calls[k] = runners2[0].take()
				t.restarts = append(t.restarts, ms(replies[k].end.Sub(replies[k].start)))
			}
			problems[k] = s.checkRestart(k, replies[k])
		}
		m2 := eng2.Metrics()
		if want := uint64(s.matrices * cellsPerMatrix); m2.Simulated != 0 || m2.DiskHits != want {
			problems[s.matrices-1] = append(problems[s.matrices-1], fmt.Sprintf("serve epoch %d restart %d: %d cells simulated and %d loaded from disk, want 0 and %d",
				e, i, m2.Simulated, m2.DiskHits, want))
		}
		s.ops(problems)
		if t != nil {
			s.trace(t, fmt.Sprintf("e%d/restart%d", e, i), replies, calls)
			t.engines = append(t.engines, m2)
			t.rec.interval("sim.setup", fmt.Sprintf("e%d/restart%d", e, i), -1, t0, t0.Add(setup))
		}
	}
	return ep, nil
}

// servers builds n servers over an engine and one shared pool, one per
// client: over the engine itself, or, in a traced epoch, each over a
// timing wrapper around it.
func (s *serveRun) servers(eng *sim.Engine, t *serveTracer, n int) ([]http.Handler, []*timedRunner) {
	pool := sim.NewPool(servePool)
	hs := make([]http.Handler, n)
	runners := make([]*timedRunner, n)
	for c := range hs {
		if t == nil {
			hs[c] = serve.New(eng, pool).Handler()
			continue
		}
		runners[c] = &timedRunner{eng: eng}
		t.runners = append(t.runners, runners[c])
		hs[c] = serve.New(runners[c], pool).Handler()
	}
	return hs, runners
}

// drive runs requests 0..n-1 on a closed loop of serveClients clients:
// each takes the next request from one shared queue once its previous
// one is answered. f handles request i on client c; requests write only
// to their own index, and drive returns when every one is done.
func drive(n int, f func(c, i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(serveClients)
	for c := 0; c < serveClients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := range next {
				f(c, i)
			}
		}(c)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func (s *serveRun) body(k int) []byte {
	b, err := json.Marshal(matrixRequest(s.o.seed, k))
	if err != nil {
		panic("perfbench: encoding a matrix request: " + err.Error())
	}
	return b
}

// ops records one operation per request with its problems.
func (s *serveRun) ops(problems [][]string) {
	for _, p := range problems {
		s.res.op(p)
	}
}

// trace records a traced phase's request spans and, for every request
// that reached the engine, the Runner span inside it, and counts the
// replies.
func (s *serveRun) trace(t *serveTracer, phase string, replies []reply, calls []*runnerCall) {
	if t == nil {
		return
	}
	for i, r := range replies {
		id := fmt.Sprintf("%s/%d", phase, i)
		sp := t.rec.interval("serve.request", id, -1, r.start, r.end)
		if c := calls[i]; c != nil {
			t.rec.interval("sim.RunMatrixOn", id, sp, c.start, c.end)
		}
		switch r.status {
		case http.StatusOK:
			t.status200++
		case http.StatusNotModified:
			t.status304++
		}
		t.bytesOut += r.size
	}
}

// checkCold checks the cold phase's replies: each a 200 with one cell
// per requested (scheme, bench), each measuring exactly the requested
// instructions. In epoch 0 the first reply of every matrix becomes its
// reference and, at the default seed, must match the recorded digest;
// every other reply must equal its matrix's reference byte for byte.
func (s *serveRun) checkCold(e int, cold []reply) [][]string {
	if e == 0 {
		s.ref = make([]reply, s.matrices)
	}
	problems := make([][]string, len(cold))
	for i, r := range cold {
		k := s.cold[i].matrix
		id := fmt.Sprintf("serve epoch %d cold request %d (matrix %d)", e, i, k)
		if r.status != http.StatusOK {
			problems[i] = []string{fmt.Sprintf("%s: status %d: %s", id, r.status, strings.TrimSpace(string(r.body)))}
			continue
		}
		if e == 0 && s.ref[k].body == nil {
			s.ref[k] = r
			problems[i] = s.checkCells(id, k, r)
			continue
		}
		if !bytes.Equal(r.body, s.ref[k].body) {
			problems[i] = []string{fmt.Sprintf("%s: body differs from epoch 0's first reply for the matrix", id)}
		}
	}
	return problems
}

// checkCells checks a matrix's reference reply: its cells and, at the
// default seed, their recorded digest.
func (s *serveRun) checkCells(id string, k int, r reply) []string {
	var resp serve.MatrixResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return []string{fmt.Sprintf("%s: undecodable body: %v", id, err)}
	}
	var p []string
	if len(resp.Cells) != cellsPerMatrix {
		p = append(p, fmt.Sprintf("%s: %d cells, want %d", id, len(resp.Cells), cellsPerMatrix))
	}
	for i := range resp.Cells {
		if resp.Cells[i].Committed != serveInsts {
			p = append(p, fmt.Sprintf("%s: cell %d measured %d instructions, want %d", id, i, resp.Cells[i].Committed, serveInsts))
		}
		// The ETags derive from the build's schema hash, not from the
		// results; leave them out of the digest.
		resp.Cells[i].ETag = ""
	}
	return append(p, s.o.digests.check(s.o, "serve", fmt.Sprintf("matrix-%d", k), digest(resp.Cells))...)
}

// checkWarm checks a warm reply: a revalidation answers 304 with the
// cold ETag, any other request 200 with the cold body byte for byte.
func (s *serveRun) checkWarm(w serveReq, r reply) []string {
	ref := s.ref[w.matrix]
	id := fmt.Sprintf("serve warm matrix %d", w.matrix)
	switch {
	case w.revalidate && (r.status != http.StatusNotModified || r.etag != ref.etag):
		return []string{fmt.Sprintf("%s: revalidation answered %d with ETag %q, want 304 with %q", id, r.status, r.etag, ref.etag)}
	case !w.revalidate && r.status != http.StatusOK:
		return []string{fmt.Sprintf("%s: status %d", id, r.status)}
	case !w.revalidate && !bytes.Equal(r.body, ref.body):
		return []string{fmt.Sprintf("%s: body differs from the cold body", id)}
	}
	return nil
}

// checkRestart checks a reply from a restarted engine: the cold body,
// byte for byte.
func (s *serveRun) checkRestart(k int, r reply) []string {
	if r.status != http.StatusOK || !bytes.Equal(r.body, s.ref[k].body) {
		return []string{fmt.Sprintf("serve restart matrix %d: status %d, body equal to cold: %v", k, r.status, bytes.Equal(r.body, s.ref[k].body))}
	}
	return nil
}

// finish turns the traced epochs' spans and counters into the per-layer
// metrics, per traced epoch; untracedRate is the untraced epochs' median
// cold-phase simulation rate.
func (t *serveTracer) finish(res *result, untracedRate float64) {
	epochs := float64(len(t.coldRates))
	spans := t.rec.snapshot()
	total, self := spanTotals(spans)
	kids := children(spans)
	var lookups, warmSelf []float64
	for i, sp := range spans {
		if !strings.Contains(sp.ID, "/warm/") || sp.Name != "serve.request" || len(kids[i]) == 0 {
			continue
		}
		// A warm request with a Runner span is a 200: a revalidation
		// never reaches the engine.
		warmSelf = append(warmSelf, float64(selfTime(sp, kids[i]).Nanoseconds())/1e3)
		run := kids[i][0]
		lookups = append(lookups, float64((run.End-run.Start).Nanoseconds())/1e3)
	}
	var simTime time.Duration
	var hits, simulated, diskHits uint64
	for _, m := range t.engines {
		simTime += m.SimTime
		hits += m.Hits
		simulated += m.Simulated
		diskHits += m.DiskHits
	}
	v := res.values
	v["sim.busy_s"] = total["sim.RunMatrixOn"].Seconds() / epochs
	v["sim.sim_s"] = simTime.Seconds() / epochs
	v["sim.lookup_us_p50"] = median(lookups)
	v["sim.hit_ratio"] = metrics.Ratio(float64(hits), float64(hits+simulated))
	v["sim.simulated"] = float64(simulated) / epochs
	v["sim.disk_hits"] = float64(diskHits) / epochs
	v["sim.disk_bytes"] = float64(t.diskBytes) / epochs
	queued := 0
	for _, r := range t.runners {
		queued = max(queued, r.queuedMax)
	}
	v["sim.pool_queued_max"] = float64(queued)
	v["sim.setup_s"] = median(t.setups)
	v["sim.restart_p50_ms"] = median(t.restarts)
	v["serve.self_us_p50"] = median(warmSelf)
	v["serve.self_s"] = self["serve.request"].Seconds() / epochs
	v["serve.status_200"] = float64(t.status200) / epochs
	v["serve.status_304"] = float64(t.status304) / epochs
	v["serve.bytes_out"] = float64(t.bytesOut) / epochs
	v["tracing.overhead_ratio"] = metrics.Ratio(untracedRate, median(t.coldRates))
	res.note("%d traced epochs; %d warm 200s reached the engine", len(t.coldRates), len(lookups))
}
