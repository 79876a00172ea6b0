package sim

// This file implements the memoizing simulation engine: every (core
// config, scheme, benchmark, options) cell is simulated at most once per
// Engine, no matter how many experiment matrices request it. Identity is
// the *full* cell configuration — a content hash over the core and scheme
// structs and the benchmark's kernels, not just their names — so two
// configs that share a name but differ in any field occupy different
// cache slots, and any config change invalidates naturally. An Engine can
// optionally persist cells to disk (JSON, one file per cell) under a
// directory versioned by a schema hash of the involved struct types, so
// cache entries from an older build self-invalidate instead of serving
// stale or misshapen statistics.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/trace"
)

// CellKey is the full identity of one simulation cell. Two cells with
// equal keys are guaranteed to produce identical statistics (simulations
// are deterministic in the seed), which is what makes memoization sound.
type CellKey struct {
	// Core, Scheme and Bench are the display names, kept for human
	// consumption (log lines, cache filenames, error messages).
	Core   string
	Scheme string
	Bench  string
	// Instructions, Warmup and Seed are the Options fields that affect
	// the simulation outcome. Parallelism is deliberately excluded: it
	// only schedules work, it never changes a cell's result.
	Instructions uint64
	Warmup       uint64
	Seed         uint64
	// ConfigHash fingerprints the complete core configuration, scheme
	// descriptor and benchmark definition, so cells are distinguished by
	// content even when names collide.
	ConfigHash uint64
}

// String renders the key as core/scheme/bench for log lines.
func (k CellKey) String() string {
	return fmt.Sprintf("%s/%s/%s", k.Core, k.Scheme, k.Bench)
}

// KeyFor computes the cache key of one cell: MatrixKeys of the 1×1×1
// matrix. ConfigHash covers every field of the core config (including the
// memory hierarchy and DRAM timing), the scheme feature flags, and the
// benchmark's kernel definitions, via their canonical encoding.
func KeyFor(cfg config.Core, scheme config.Scheme, bench trace.Benchmark, opt Options) CellKey {
	return MatrixKeys([]config.Core{cfg}, []config.Scheme{scheme}, []trace.Benchmark{bench}, opt)[0]
}

// MatrixKeys returns the keys of every cell of a cores × schemes × benches
// matrix in response order: cores outermost, then schemes, then benches.
// It fingerprints each core, scheme and benchmark once and derives each
// cell's ConfigHash from its three fingerprints, so a matrix costs one
// canonical walk per list entry rather than one per cell.
func MatrixKeys(cores []config.Core, schemes []config.Scheme, benches []trace.Benchmark, opt Options) []CellKey {
	schemeFP := make([]uint64, len(schemes))
	for i := range schemes {
		schemeFP[i] = fingerprint(&schemes[i])
	}
	benchFP := make([]uint64, len(benches))
	for i := range benches {
		benchFP[i] = fingerprint(&benches[i])
	}
	keys := make([]CellKey, 0, len(cores)*len(schemes)*len(benches))
	for i := range cores {
		coreFP := fingerprint(&cores[i])
		for j := range schemes {
			for k := range benches {
				h := newWordHash()
				h.word(coreFP)
				h.word(schemeFP[j])
				h.word(benchFP[k])
				keys = append(keys, CellKey{
					Core:         cores[i].Name,
					Scheme:       schemes[j].Name,
					Bench:        benches[k].Name,
					Instructions: opt.Instructions,
					Warmup:       opt.Warmup,
					Seed:         opt.Seed,
					ConfigHash:   uint64(h),
				})
			}
		}
	}
	return keys
}

// SchemaHash fingerprints the shape (field names and types, recursively)
// of every struct that participates in a persisted cache entry, and the
// cache file name of a fixed reference key. It changes whenever
// config.Core, config.Scheme, trace.Benchmark, Options or core.Stats
// gain, lose or retype a field, and whenever the identity hash or its
// canonical encoding (fingerprint.go) renames cache files; either
// silently retires any on-disk cache written by a previous build. The
// result is constant within a build, so it is computed once (it sits on
// the server's per-request ETag path).
func SchemaHash() string {
	schemaHashOnce.Do(func() { schemaHash = schemaHashWith(fingerprint(&schemaRefKey)) })
	return schemaHash
}

var (
	schemaHashOnce sync.Once
	schemaHash     string
)

// schemaRefKey is the fixed cell key whose file-name fingerprint
// SchemaHash folds in. The struct walk sees only shapes, so without it a
// build that hashes keys differently would write its files beside the
// old ones, in the same directory, where nothing reads or removes them.
var schemaRefKey = CellKey{
	Core: "schema", Scheme: "ref", Bench: "key",
	Instructions: 1_000_000, Warmup: 200_000, Seed: 42,
	ConfigHash: 0x0123456789abcdef,
}

// schemaHashWith hashes the persisted struct shapes together with keyFP,
// the fingerprint cellPath names schemaRefKey's file by.
func schemaHashWith(keyFP uint64) string {
	h := fnv.New64a()
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		switch t.Kind() {
		case reflect.Struct:
			if seen[t] {
				fmt.Fprintf(h, "<%s>", t.String())
				return
			}
			seen[t] = true
			fmt.Fprintf(h, "%s{", t.String())
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				fmt.Fprintf(h, "%s:", f.Name)
				walk(f.Type)
				h.Write([]byte(";"))
			}
			h.Write([]byte("}"))
		case reflect.Slice, reflect.Array, reflect.Pointer:
			fmt.Fprintf(h, "%s[", t.String())
			walk(t.Elem())
			h.Write([]byte("]"))
		default:
			h.Write([]byte(t.String()))
		}
	}
	for _, t := range []reflect.Type{
		reflect.TypeOf(config.Core{}),
		reflect.TypeOf(config.Scheme{}),
		reflect.TypeOf(trace.Benchmark{}),
		reflect.TypeOf(Options{}),
		reflect.TypeOf(core.Stats{}),
	} {
		walk(t)
	}
	fmt.Fprintf(h, "key:%016x", keyFP)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Metrics is a snapshot of an Engine's counters.
type Metrics struct {
	// Simulated counts cells that ran the cycle-level simulator.
	Simulated uint64
	// Hits counts requests *served* without simulating: from memory, from
	// disk, or by waiting on an identical in-flight simulation. Only
	// successful resolutions count — a waiter on a cell whose shared
	// simulation fails records neither a hit (it served nothing) nor an
	// error (the runner counts each failure exactly once).
	Hits uint64
	// DiskHits counts the subset of Hits loaded from the on-disk cache.
	DiskHits uint64
	// Errors counts failed simulations. Failures already surface to
	// callers through Run's error return; this counter exists for engine
	// observability and is consumed by engine clients.
	Errors uint64
	// ErrHits counts requests answered with a remembered failure: the
	// cell's simulation failed earlier in this engine's lifetime, and the
	// engine returns that error instead of simulating it again.
	ErrHits uint64
	// Unique is the number of distinct cells held in memory, failed cells
	// included.
	Unique int
	// SimTime is the cumulative wall-clock time spent inside the
	// simulator (summed across parallel workers).
	SimTime time.Duration
	// DiskEntries, DiskBytes and Evicted describe the persistent store:
	// current occupancy and how many cell files LRU eviction has removed.
	// All zero on a memory-only engine.
	DiskEntries int
	DiskBytes   int64
	Evicted     uint64
}

// CellProgress describes one completed cell lookup, for progress
// reporting.
type CellProgress struct {
	// Key identifies the cell.
	Key CellKey
	// Source is "sim" (freshly simulated), "mem" (memory or in-flight
	// hit) or "disk" (loaded from the persistent cache).
	Source string
	// Dur is the simulation wall-clock time; zero for cache hits.
	Dur time.Duration
	// Stats is the cell's result; IPC and MLP summarise it.
	Stats    core.Stats
	IPC, MLP float64
	// Metrics is the engine counter snapshot after this cell.
	Metrics Metrics
}

// cellEntry is one memoized (or in-flight) cell. done is closed when
// stats/err are final; waiters block on it without holding the engine
// lock, so distinct cells simulate concurrently. stats and err are
// published under the engine lock before done is closed, so both the
// post-done read (ordered by the close) and the locked fast-path reads in
// run and RunMatrixOn are race-free.
type cellEntry struct {
	done  chan struct{}
	stats core.Stats
	err   error
}

// memHit reports whether ent (nil for a key not in memory) holds a
// finished, successful result, and counts the memory hit when it does.
// In-flight, failed and absent entries are not hits: run waits on,
// answers or simulates those. The caller reports the hit to OnCell once
// it has released the lock.
//
//rarlint:locked mu
func (e *Engine) memHit(ent *cellEntry) bool {
	if ent == nil || ent.err != nil {
		return false
	}
	select {
	case <-ent.done:
	default:
		return false // still in flight
	}
	e.m.Hits++
	return true
}

// Engine memoizes simulation cells. It is safe for concurrent use; an
// engine shared across experiment matrices simulates each unique cell
// exactly once. The zero value is not usable — construct with NewEngine
// or NewPersistentEngine.
type Engine struct {
	// OnCell, when non-nil, is invoked (unlocked, from the requesting
	// goroutine) after every completed cell lookup. Set it before the
	// engine is first used.
	OnCell func(CellProgress) //rarlint:guardedby init

	mu    sync.Mutex
	cells map[CellKey]*cellEntry //rarlint:guardedby mu
	m     Metrics                //rarlint:guardedby mu
	dir   string                 //rarlint:guardedby init  versioned persistence directory; "" = memory only
	store *diskStore             //rarlint:guardedby init  LRU index over dir; nil = memory only (internally locked)

	// runCell performs one simulation; replaced in tests.
	runCell func(config.Core, config.Scheme, trace.Benchmark, Options) (core.Stats, error) //rarlint:guardedby init
}

// NewEngine returns a memory-only memoizing engine.
func NewEngine() *Engine {
	return &Engine{
		cells:   make(map[CellKey]*cellEntry),
		runCell: Run,
	}
}

// NewPersistentEngine returns an engine that additionally persists every
// simulated cell as JSON under dir/v-<schema hash>/, and warm-starts
// from entries found there. Entries written by a build with different
// struct shapes live under a different schema directory and are never
// read. Startup sweeps ".cell-*" temp files abandoned by a process
// killed mid-write and indexes the surviving cells for LRU eviction
// (budgets default to unbounded; see SetDiskBudget).
func NewPersistentEngine(dir string) (*Engine, error) {
	sub := filepath.Join(dir, "v-"+SchemaHash())
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return nil, fmt.Errorf("sim: cache dir: %w", err)
	}
	store, err := newDiskStore(sub)
	if err != nil {
		return nil, fmt.Errorf("sim: cache scan: %w", err)
	}
	e := NewEngine()
	e.dir = sub
	e.store = store
	return e, nil
}

// SetDiskBudget bounds the persistent store: at most maxEntries cell
// files totalling at most maxBytes (0 = unbounded for either). Once a
// write pushes the store over budget, least-recently-used cells are
// evicted; an evicted cell simply re-simulates on next request, so the
// budget bounds disk, never correctness. No-op on a memory-only engine.
func (e *Engine) SetDiskBudget(maxBytes int64, maxEntries int) {
	if e.store != nil {
		e.store.setBudget(maxBytes, maxEntries)
	}
}

// CacheDir returns the engine's versioned persistence directory, or ""
// for a memory-only engine.
func (e *Engine) CacheDir() string { return e.dir }

// Metrics returns a snapshot of the engine's counters.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.m
	m.Unique = len(e.cells)
	if e.store != nil {
		m.DiskEntries, m.DiskBytes, m.Evicted = e.store.gauges()
	}
	return m
}

// Run returns the statistics of one cell, simulating it only if no
// earlier call (or persisted entry) already did. Concurrent calls with
// the same key share a single simulation. A failure is a result too: its
// error is returned to every waiter and kept for the engine's lifetime,
// so every later call returns it without simulating the cell again (a
// cell's outcome is a function of its key, so a retry would fail the
// same way).
func (e *Engine) Run(cfg config.Core, scheme config.Scheme, bench trace.Benchmark, opt Options) (core.Stats, error) {
	return e.run(nil, KeyFor(cfg, scheme, bench, opt), cfg, scheme, bench, opt)
}

// run is Run for a cell whose key the caller has already computed. Only
// the simulation itself occupies a slot of pool: a memory hit, a disk
// load or a wait on an identical in-flight cell never holds or waits for
// one.
func (e *Engine) run(pool *Pool, key CellKey, cfg config.Core, scheme config.Scheme, bench trace.Benchmark, opt Options) (core.Stats, error) {
	e.mu.Lock()
	ent, ok := e.cells[key]
	if e.memHit(ent) {
		e.mu.Unlock()
		e.progress(key, "mem", 0, ent.stats)
		return ent.stats, nil
	}
	if ok && ent.err != nil {
		// A remembered failure (the runner publishes err under this
		// lock, so a set err is final even before done is closed).
		e.m.ErrHits++
		e.mu.Unlock()
		return core.Stats{}, ent.err
	}
	if ok {
		// In flight: wait for the runner without holding the lock.
		e.mu.Unlock()
		<-ent.done
		if ent.err != nil {
			// The shared simulation failed. The runner counted the error;
			// this waiter served nothing, so it must not count a hit.
			return core.Stats{}, ent.err
		}
		e.mu.Lock()
		e.m.Hits++
		e.mu.Unlock()
		e.progress(key, "mem", 0, ent.stats)
		return ent.stats, nil
	}
	ent = &cellEntry{done: make(chan struct{})}
	e.cells[key] = ent
	e.mu.Unlock()

	// Miss: try the persistent cache, then simulate.
	if st, ok := e.loadDisk(key); ok {
		e.mu.Lock()
		ent.stats = st
		e.m.Hits++
		e.m.DiskHits++
		e.mu.Unlock()
		close(ent.done)
		e.progress(key, "disk", 0, st)
		return st, nil
	}
	var (
		st  core.Stats
		err error
		dur time.Duration
	)
	pool.Do(func() {
		// Host-side wall-clock timing of the simulation, for the SimTime
		// metric and progress lines only. It never feeds a cell's Stats
		// or the cache key, so it is outside the simulated-state
		// determinism boundary.
		start := time.Now() //rarlint:allow determinism host-side timing; never enters simulated state or the cache
		st, err = e.runCell(cfg, scheme, bench, opt)
		dur = time.Since(start) //rarlint:allow determinism host-side timing; never enters simulated state or the cache
	})

	e.mu.Lock()
	ent.stats, ent.err = st, err
	if err != nil {
		e.m.Errors++
	} else {
		e.m.Simulated++
		e.m.SimTime += dur
	}
	e.mu.Unlock()
	close(ent.done)
	if err != nil {
		return core.Stats{}, err
	}
	e.storeDisk(key, st, dur)
	e.progress(key, "sim", dur, st)
	return st, nil
}

func (e *Engine) progress(key CellKey, source string, dur time.Duration, st core.Stats) {
	if e.OnCell == nil {
		return
	}
	e.OnCell(CellProgress{
		Key:     key,
		Source:  source,
		Dur:     dur,
		Stats:   st,
		IPC:     st.IPC(),
		MLP:     st.Mem.MLP(),
		Metrics: e.Metrics(),
	})
}

// diskCell is the persisted form of one cell. StatsHash is the canonical
// fingerprint of Stats, so a file whose numbers changed after it was
// written reads as a miss instead of serving them.
type diskCell struct {
	Key        CellKey    `json:"key"`
	Stats      core.Stats `json:"stats"`
	StatsHash  uint64     `json:"statsHash"`
	SimSeconds float64    `json:"simSeconds"`
}

// cellPath maps a key to its cache file. The name hashes every key field
// (the human-readable names are prefixed for browsability).
func (e *Engine) cellPath(key CellKey) string {
	return filepath.Join(e.dir, fmt.Sprintf("%s_%s_%s_%016x.json",
		sanitize(key.Core), sanitize(key.Scheme), sanitize(key.Bench), fingerprint(&key)))
}

// sanitize keeps cache filenames portable.
func sanitize(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '.':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// loadDisk reads a persisted cell, validating that the stored key is
// exactly the requested one (guarding against filename collisions and
// hand-edited files) and that the stored Stats still match their stored
// fingerprint (guarding against corrupted numbers). Any failure is a
// plain miss: the cell re-simulates and storeDisk rewrites the file. A hit
// refreshes the cell's LRU position.
func (e *Engine) loadDisk(key CellKey) (core.Stats, bool) {
	if e.dir == "" {
		return core.Stats{}, false
	}
	path := e.cellPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return core.Stats{}, false
	}
	var dc diskCell
	if err := json.Unmarshal(data, &dc); err != nil || dc.Key != key || fingerprint(&dc.Stats) != dc.StatsHash {
		return core.Stats{}, false
	}
	if e.store != nil {
		e.store.touch(path)
	}
	return dc.Stats, true
}

// storeDisk persists one simulated cell, best-effort: a full disk or
// read-only directory degrades to memory-only caching rather than
// failing the run. The write is atomic (temp file + rename) so a
// concurrent reader never sees a torn entry.
func (e *Engine) storeDisk(key CellKey, st core.Stats, dur time.Duration) {
	if e.dir == "" {
		return
	}
	data, err := json.Marshal(diskCell{Key: key, Stats: st, StatsHash: fingerprint(&st), SimSeconds: dur.Seconds()})
	if err != nil {
		return
	}
	path := e.cellPath(key)
	tmp, err := os.CreateTemp(e.dir, ".cell-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		//rarlint:allow errdiscipline best-effort temp-file cleanup on an already-degraded path
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		//rarlint:allow errdiscipline best-effort temp-file cleanup on an already-degraded path
		os.Remove(tmp.Name())
		return
	}
	if e.store != nil {
		e.store.add(path, int64(len(data)))
	}
}

// RunMatrix simulates every (core, scheme, benchmark) combination,
// consulting the memo cache before spawning any simulation, and returns
// the result set. Cells are only stored on success, and once any cell
// has failed all further writes are dropped: a partially-built set can
// never serve zero-value statistics. The returned error names every
// failed cell (scheduling of new cells stops at the first failure, but
// in-flight cells that also fail are reported too).
func (e *Engine) RunMatrix(cores []config.Core, schemes []config.Scheme, benches []trace.Benchmark, opt Options) (*ResultSet, error) {
	return e.RunMatrixOn(nil, cores, schemes, benches, opt)
}

// RunMatrixOn is RunMatrix gated by a shared worker pool: the matrix
// still schedules at most opt.Parallelism cells of its own, but every
// simulation additionally occupies a pool slot, so concurrent matrices —
// the server's concurrent requests — share one process-wide concurrency
// budget instead of each bringing their own. Only simulations take a
// slot: a cell served from memory, from disk or by an identical
// in-flight simulation never waits behind unrelated work. The matrix's
// keys come from one MatrixKeys call, so no cell is fingerprinted twice.
// Memory hits are answered inline, before any worker starts, so a fully
// warm matrix starts no goroutine. A nil pool reproduces RunMatrix
// exactly.
func (e *Engine) RunMatrixOn(pool *Pool, cores []config.Core, schemes []config.Scheme, benches []trace.Benchmark, opt Options) (*ResultSet, error) {
	keys := MatrixKeys(cores, schemes, benches, opt)
	rs := &ResultSet{cells: make(map[Key]core.Stats, len(keys))}

	// One pass under the lock copies every finished, successful memory
	// entry into the result set. rest keeps the cells left for the
	// workers: in flight, failed, on disk or to simulate.
	rest := make([]int, 0, len(keys))
	e.mu.Lock()
	for i, k := range keys {
		if ent := e.cells[k]; e.memHit(ent) {
			rs.cells[Key{k.Core, k.Scheme, k.Bench}] = ent.stats
		} else {
			rest = append(rest, i)
		}
	}
	e.mu.Unlock()
	if e.OnCell != nil {
		for i, j := 0, 0; i < len(keys); i++ {
			if j < len(rest) && rest[j] == i {
				j++
				continue
			}
			k := keys[i]
			e.progress(k, "mem", 0, rs.cells[Key{k.Core, k.Scheme, k.Bench}])
		}
	}
	if len(rest) == 0 {
		return rs, nil
	}

	par := opt.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	par = min(par, len(rest))
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int
		errs []error
	)
	worker := func() {
		defer wg.Done()
		for {
			mu.Lock()
			if len(errs) > 0 || next >= len(rest) {
				mu.Unlock()
				return
			}
			i := rest[next]
			next++
			mu.Unlock()

			// Cell i of the cores × schemes × benches product, the order
			// MatrixKeys enumerates.
			k := keys[i]
			b := i % len(benches)
			s := i / len(benches) % len(schemes)
			c := i / (len(benches) * len(schemes))
			st, err := e.run(pool, k, cores[c], schemes[s], benches[b], opt)
			mu.Lock()
			switch {
			case err != nil:
				errs = append(errs, fmt.Errorf("%s: %w", k, err))
			case len(errs) == 0:
				rs.cells[Key{k.Core, k.Scheme, k.Bench}] = st
			}
			mu.Unlock()
		}
	}
	wg.Add(par)
	for i := 0; i < par; i++ {
		go worker()
	}
	wg.Wait()
	if len(errs) > 0 {
		// Workers append in completion order, which varies run to run;
		// sort so the diagnostic names failed cells deterministically.
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return nil, fmt.Errorf("sim: %d cell(s) failed: %w", len(errs), errors.Join(errs...))
	}
	return rs, nil
}
