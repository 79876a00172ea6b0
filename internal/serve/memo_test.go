package serve

// Reply-memo tests: a repeated body is answered from the memo without
// reaching the Runner, a failure is never remembered, the memo keeps to
// its bound and drops the least recently used reply first, and one
// server stays consistent under concurrent repeated and new bodies.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"rarsim/internal/config"
	"rarsim/internal/sim"
	"rarsim/internal/trace"
)

// countingRunner counts the matrices that reach the Runner it wraps.
type countingRunner struct {
	Runner
	calls atomic.Int64
}

func (c *countingRunner) RunMatrixOn(p *sim.Pool, cores []config.Core, schemes []config.Scheme, benches []trace.Benchmark, opt sim.Options) (*sim.ResultSet, error) {
	c.calls.Add(1)
	return c.Runner.RunMatrixOn(p, cores, schemes, benches, opt)
}

// errRunner fails every matrix with an error the server answers 500.
type errRunner struct{}

func (errRunner) RunMatrixOn(*sim.Pool, []config.Core, []config.Scheme, []trace.Benchmark, sim.Options) (*sim.ResultSet, error) {
	return nil, errors.New("boom")
}

func (errRunner) Metrics() sim.Metrics { return sim.Metrics{} }

// serveBody posts body to h's /matrix and returns the recorded reply.
func serveBody(h http.Handler, body []byte, ifNoneMatch string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/matrix", bytes.NewReader(body))
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// httpCounts is the part of the HTTP counters a test can predict: all
// of them but the latency percentiles.
func httpCounts(s *Server) HTTPCounters {
	h := s.snapshot().HTTP
	h.P50Millis, h.P99Millis = 0, 0
	return h
}

// TestReplyMemoReplays: a repeated body gets the first reply's status,
// headers and body byte for byte, from the memo rather than the Runner,
// and counts as a 200 serving all its cells.
func TestReplyMemoReplays(t *testing.T) {
	runner := &countingRunner{Runner: sim.NewEngine()}
	srv := New(runner, sim.NewPool(2))
	h := srv.Handler()
	body := mustJSON(t, testRequest())

	first := serveBody(h, body, "")
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body.Bytes())
	}
	etag := first.Header().Get("ETag")
	if etag == "" || first.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("first reply headers %v", first.Header())
	}
	second := serveBody(h, body, "")
	if second.Code != first.Code || !reflect.DeepEqual(second.Header(), first.Header()) {
		t.Errorf("repeat answered %d %v, want %d %v", second.Code, second.Header(), first.Code, first.Header())
	}
	if !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
		t.Errorf("repeat body differs:\n%s\nwant\n%s", second.Body.Bytes(), first.Body.Bytes())
	}
	if n := runner.calls.Load(); n != 1 {
		t.Errorf("runner called %d times for a repeated body, want 1", n)
	}
	cells := uint64(len(testRequest().Schemes) * len(testRequest().Benches))
	want := HTTPCounters{
		MatrixRequests: 2, OK: 2, CellsServed: 2 * cells,
		ReplyHits: 1, ReplyEntries: 1, ReplyBytes: len(body) + first.Body.Len() + len(etag),
	}
	if got := httpCounts(srv); got != want {
		t.Errorf("http counters %+v, want %+v", got, want)
	}

	// A body that differs only in whitespace is another key: it reaches
	// the runner and gets the same reply.
	spaced := serveBody(h, append([]byte(" "), body...), "")
	if spaced.Code != http.StatusOK || !bytes.Equal(spaced.Body.Bytes(), first.Body.Bytes()) {
		t.Errorf("whitespace variant answered %d with a different body", spaced.Code)
	}
	if n := runner.calls.Load(); n != 2 {
		t.Errorf("runner called %d times after a new body, want 2", n)
	}
}

// TestReplyMemoRevalidates: If-None-Match on a memoized body is a 304
// from the memo; a tag that does not match gets the stored reply.
func TestReplyMemoRevalidates(t *testing.T) {
	runner := &countingRunner{Runner: sim.NewEngine()}
	srv := New(runner, sim.NewPool(2))
	h := srv.Handler()
	body := mustJSON(t, testRequest())
	first := serveBody(h, body, "")
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body.Bytes())
	}
	etag := first.Header().Get("ETag")

	for _, inm := range []string{etag, "W/" + etag, `"0000000000000000", ` + etag} {
		rec := serveBody(h, body, inm)
		if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 || rec.Header().Get("ETag") != etag {
			t.Errorf("If-None-Match %s: %d with ETag %q and %d body bytes, want 304 with %q and none",
				inm, rec.Code, rec.Header().Get("ETag"), rec.Body.Len(), etag)
		}
	}
	stale := serveBody(h, body, `"0000000000000000"`)
	if stale.Code != http.StatusOK || !bytes.Equal(stale.Body.Bytes(), first.Body.Bytes()) {
		t.Errorf("stale If-None-Match answered %d with a different body", stale.Code)
	}
	if n := runner.calls.Load(); n != 1 {
		t.Errorf("runner called %d times, want 1", n)
	}
	cells := uint64(len(testRequest().Schemes) * len(testRequest().Benches))
	got := httpCounts(srv)
	if got.NotModified != 3 || got.OK != 2 || got.CellsServed != 2*cells || got.ReplyHits != 4 || got.MatrixRequests != 5 {
		t.Errorf("http counters %+v: want 3 304s and 2 200s serving %d cells, 4 of the 5 from the memo", got, 2*cells)
	}
}

// TestReplyMemoSkipsFailures: no reply but a 200 is stored, so a
// repeated failing body is handled afresh and a failing runner is
// called again. No failure carries an ETag: only a 200 or a 304 has a
// tag a client may revalidate with.
func TestReplyMemoSkipsFailures(t *testing.T) {
	tiny := mustJSON(t, testRequest())
	unknown := testRequest()
	unknown.Benches = []string{"no-such-bench"}
	huge := append([]byte(`{"benches":[`), bytes.Repeat([]byte(`"mcf",`), maxBodyBytes/6+1)...)
	huge = append(huge, `"mcf"]}`...)
	for _, tc := range []struct {
		name   string
		runner Runner
		body   []byte
		status int
		calls  int64
	}{
		{"junk", sim.NewEngine(), []byte("{not json"), http.StatusBadRequest, 0},
		{"unknown-bench", sim.NewEngine(), mustJSON(t, unknown), http.StatusBadRequest, 0},
		{"too-large", sim.NewEngine(), huge, http.StatusRequestEntityTooLarge, 0},
		{"runner-error", errRunner{}, tiny, http.StatusInternalServerError, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runner := &countingRunner{Runner: tc.runner}
			srv := New(runner, sim.NewPool(1))
			for i := 0; i < 2; i++ {
				rec := serveBody(srv.Handler(), tc.body, "")
				if rec.Code != tc.status {
					t.Fatalf("request %d: status %d, want %d: %s", i, rec.Code, tc.status, rec.Body.Bytes())
				}
				if etag := rec.Header().Get("ETag"); etag != "" {
					t.Errorf("request %d: a %d carries ETag %s", i, rec.Code, etag)
				}
			}
			if n := runner.calls.Load(); n != tc.calls {
				t.Errorf("runner called %d times, want %d", n, tc.calls)
			}
			if got := httpCounts(srv); got.ReplyHits != 0 || got.ReplyEntries != 0 || got.ReplyBytes != 0 {
				t.Errorf("a %d was remembered: %+v", tc.status, got)
			}
		})
	}
}

// TestReplyMemoBound: the memo never holds more bytes than its bound,
// drops the least recently used reply first, and keeps no reply larger
// than the bound; a server's evicted body reaches the runner again.
func TestReplyMemoBound(t *testing.T) {
	m := replyMemo{limit: 100}
	put := func(key string, n int) { m.put([]byte(key), make([]byte, n), `"e"`, 1) }
	// check walks the recency list and wants exactly the keys held, most
	// recently used first, within the bound.
	check := func(step string, held ...string) {
		t.Helper()
		var keys []string
		sum := 0
		for i := m.slots[0].next; i != 0; i = m.slots[i].next {
			keys = append(keys, string(m.slots[i].key()))
			sum += len(m.slots[i].data)
		}
		entries, size := m.gauges()
		if size > m.limit || size != sum || entries != len(keys) || !reflect.DeepEqual(keys, held) {
			t.Fatalf("%s: holds %q in %d bytes (gauges %d entries, %d bytes; bound %d), want %q",
				step, keys, sum, entries, size, m.limit, held)
		}
	}
	put("a", 30) // 34 bytes each
	put("b", 30)
	check("two replies", "b", "a")
	if rep, ok := m.get([]byte("a")); !ok || string(rep.key()) != "a" || len(rep.body()) != 30 || rep.etag() != `"e"` {
		t.Fatalf("get(a) = %q %q %q, %v", rep.key(), rep.body(), rep.etag(), ok)
	}
	check("a used", "a", "b")
	put("c", 30) // 102 bytes: b is the least recently used
	check("after c", "c", "a")
	if _, ok := m.get([]byte("b")); ok {
		t.Error("b survived although a was used after it")
	}
	put("d", 97) // 101 bytes, over the bound alone
	check("after an oversized reply", "c", "a")
	put("a", 30) // a body stored again replaces its reply
	check("a stored again", "a", "c")
	put("e", 96) // exactly the bound
	check("after a reply of the bound's size", "e")
	put("f", 10)
	check("after f", "f")

	// Through a server whose bound holds one 4-cell reply but not two.
	runner := &countingRunner{Runner: sim.NewEngine()}
	srv := New(runner, sim.NewPool(2))
	reqA, reqB := testRequest(), testRequest()
	reqB.Seed++
	bodyA, bodyB := mustJSON(t, reqA), mustJSON(t, reqB)
	first := serveBody(srv.Handler(), bodyA, "")
	srv.memo.limit = (len(bodyA) + first.Body.Len() + len(first.Header().Get("ETag"))) * 3 / 2
	// A is a hit; B evicts A; A reaches the runner again and evicts B.
	for i, body := range [][]byte{bodyA, bodyB, bodyA} {
		if rec := serveBody(srv.Handler(), body, ""); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	if n := runner.calls.Load(); n != 3 {
		t.Errorf("runner called %d times, want 3", n)
	}
	if got := httpCounts(srv); got.ReplyHits != 1 || got.ReplyEntries != 1 || got.ReplyBytes > srv.memo.limit {
		t.Errorf("http counters %+v, want 1 hit and 1 entry within %d bytes", got, srv.memo.limit)
	}
}

// TestReplyMemoConcurrent hits one server from many goroutines with
// repeated bodies and new ones (whitespace variants and new matrices),
// with a bound that holds every reply and with one that evicts all the
// time. Every reply of a matrix must be the same bytes, and every
// request is answered either from the memo or by the runner. Run under
// -race it checks the memo's locking.
func TestReplyMemoConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit int
	}{{"roomy", replyMemoBytes}, {"evicting", 1200}} {
		t.Run(tc.name, func(t *testing.T) {
			runner := &countingRunner{Runner: sim.NewEngine()}
			srv := New(runner, sim.NewPool(2))
			srv.memo.limit = tc.limit
			h := srv.Handler()
			const goroutines, perG, matrices = 8, 12, 6
			var bodies [goroutines][perG][]byte
			for g := range bodies {
				for i := range bodies[g] {
					variant := 0
					if i%2 == 1 {
						variant = 1 + g*perG + i // a body no other request sends
					}
					req := MatrixRequest{Schemes: []string{"OoO"}, Benches: []string{"mcf"}, Instructions: 1000, Seed: uint64((3*g + i) % matrices)}
					bodies[g][i] = append(bytes.Repeat([]byte(" "), variant), mustJSON(t, req)...)
				}
			}
			replies := make([][][]byte, matrices)
			var mu sync.Mutex
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i, body := range bodies[g] {
						k := (3*g + i) % matrices
						rec := serveBody(h, body, "")
						if rec.Code != http.StatusOK {
							t.Errorf("matrix %d: status %d: %s", k, rec.Code, rec.Body.Bytes())
							return
						}
						mu.Lock()
						replies[k] = append(replies[k], rec.Body.Bytes())
						mu.Unlock()
					}
				}(g)
			}
			wg.Wait()
			for k, rs := range replies {
				for _, r := range rs[1:] {
					if !bytes.Equal(r, rs[0]) {
						t.Fatalf("matrix %d answered with different bodies", k)
					}
				}
			}
			got := httpCounts(srv)
			total := uint64(goroutines * perG)
			if got.MatrixRequests != total || got.OK != total || got.ReplyHits+uint64(runner.calls.Load()) != total {
				t.Errorf("http counters %+v with %d runner calls, want %d 200s each from the memo or the runner", got, runner.calls.Load(), total)
			}
			if got.ReplyBytes > tc.limit {
				t.Errorf("memo holds %d bytes, bound %d", got.ReplyBytes, tc.limit)
			}
			if m := runner.Metrics(); m.Simulated != matrices {
				t.Errorf("simulated %d cells, want %d", m.Simulated, matrices)
			}
		})
	}
}

// tinyRunner runs a matrix of at most tinyCells cells, each of at most
// tinyInsts warmup plus measured instructions, on a real engine, and
// fails every other matrix.
type tinyRunner struct{ eng *sim.Engine }

const tinyCells, tinyInsts = 4, 2000

func (r tinyRunner) RunMatrixOn(p *sim.Pool, cores []config.Core, schemes []config.Scheme, benches []trace.Benchmark, opt sim.Options) (*sim.ResultSet, error) {
	if len(cores)*len(schemes)*len(benches) > tinyCells || opt.Warmup+opt.Instructions > tinyInsts {
		return nil, errors.New("matrix too large for the fuzz runner")
	}
	return r.eng.RunMatrixOn(p, cores, schemes, benches, opt)
}

func (r tinyRunner) Metrics() sim.Metrics { return r.eng.Metrics() }

// FuzzMatrixReplay posts each input twice to a fresh server: neither
// request may panic, both replies must carry the same status, ETag and
// bytes, and only a 200 may be replayed from the reply memo, without the
// runner. The seed corpus in testdata/fuzz/FuzzMatrixReplay is
// FuzzResolve's plus tiny matrices the runner accepts.
func FuzzMatrixReplay(f *testing.F) {
	runner := tinyRunner{eng: sim.NewEngine()}
	pool := sim.NewPool(2)
	f.Fuzz(func(t *testing.T, body []byte) {
		counted := &countingRunner{Runner: runner}
		srv := New(counted, pool)
		first := serveBody(srv.Handler(), body, "")
		second := serveBody(srv.Handler(), body, "")
		if second.Code != first.Code || second.Header().Get("ETag") != first.Header().Get("ETag") ||
			!bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("repeat answered %d %q %q, first %d %q %q", second.Code, second.Header().Get("ETag"), second.Body.Bytes(),
				first.Code, first.Header().Get("ETag"), first.Body.Bytes())
		}
		hits, calls := srv.snapshot().HTTP.ReplyHits, counted.calls.Load()
		if first.Code == http.StatusOK && (hits != 1 || calls != 1) {
			t.Fatalf("a 200 was not replayed: %d reply hits, %d runner calls", hits, calls)
		}
		if first.Code != http.StatusOK && hits != 0 {
			t.Fatalf("a %d was replayed from the memo", first.Code)
		}
	})
}
