package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/trace"
)

// matrixJSON renders every cell of a result set as canonical JSON, for
// byte-identity comparisons.
func matrixJSON(t *testing.T, rs *ResultSet, cores []config.Core, schemes []config.Scheme, benches []trace.Benchmark) []byte {
	t.Helper()
	var buf []byte
	for _, c := range cores {
		for _, s := range schemes {
			for _, b := range benches {
				data, err := json.Marshal(rs.MustStats(c.Name, s.Name, b.Name))
				if err != nil {
					t.Fatal(err)
				}
				buf = append(buf, data...)
				buf = append(buf, '\n')
			}
		}
	}
	return buf
}

// TestEngineMemoizes runs the same matrix twice through one engine: the
// second pass must be 100% cache hits with zero new simulations, and the
// result sets must be byte-identical.
func TestEngineMemoizes(t *testing.T) {
	cores := []config.Core{config.Baseline()}
	schemes := []config.Scheme{config.OoO, config.RAR}
	benches := twoBenches(t)
	opt := smallOpt()

	e := NewEngine()
	rs1, err := e.RunMatrix(cores, schemes, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	m1 := e.Metrics()
	want := uint64(len(cores) * len(schemes) * len(benches))
	if m1.Simulated != want || m1.Hits != 0 {
		t.Fatalf("first pass: simulated=%d hits=%d, want %d/0", m1.Simulated, m1.Hits, want)
	}

	rs2, err := e.RunMatrix(cores, schemes, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	m2 := e.Metrics()
	if m2.Simulated != m1.Simulated {
		t.Errorf("second pass simulated %d new cells, want 0", m2.Simulated-m1.Simulated)
	}
	if m2.Hits != want {
		t.Errorf("second pass hits = %d, want %d", m2.Hits, want)
	}
	if !reflect.DeepEqual(rs1.cells, rs2.cells) {
		t.Error("cached pass differs from simulated pass")
	}
	j1 := matrixJSON(t, rs1, cores, schemes, benches)
	j2 := matrixJSON(t, rs2, cores, schemes, benches)
	if string(j1) != string(j2) {
		t.Error("cached result set is not byte-identical to the simulated one")
	}
}

// TestEngineDeterminism: two independent engines with the same seed must
// produce byte-identical result sets.
func TestEngineDeterminism(t *testing.T) {
	cores := []config.Core{config.Baseline()}
	schemes := []config.Scheme{config.OoO, config.PRE}
	benches := twoBenches(t)
	opt := smallOpt()

	rs1, err := NewEngine().RunMatrix(cores, schemes, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := NewEngine().RunMatrix(cores, schemes, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	j1 := matrixJSON(t, rs1, cores, schemes, benches)
	j2 := matrixJSON(t, rs2, cores, schemes, benches)
	if string(j1) != string(j2) {
		t.Error("same seed must yield byte-identical result sets")
	}
}

// TestKeyInvalidation pins what identifies a cell: any change to the
// options, the core config, the scheme flags or the benchmark definition
// must move to a different cache slot; the parallelism knob must not.
func TestKeyInvalidation(t *testing.T) {
	cfg := config.Baseline()
	bench := twoBenches(t)[0]
	opt := smallOpt()
	base := KeyFor(cfg, config.RAR, bench, opt)

	if got := KeyFor(cfg, config.RAR, bench, opt); got != base {
		t.Error("identical inputs must map to the identical key")
	}
	par := opt
	par.Parallelism = 13
	if got := KeyFor(cfg, config.RAR, bench, par); got != base {
		t.Error("parallelism must not affect the key")
	}

	mut := []struct {
		name string
		key  CellKey
	}{
		{"instructions", func() CellKey { o := opt; o.Instructions++; return KeyFor(cfg, config.RAR, bench, o) }()},
		{"warmup", func() CellKey { o := opt; o.Warmup++; return KeyFor(cfg, config.RAR, bench, o) }()},
		{"seed", func() CellKey { o := opt; o.Seed++; return KeyFor(cfg, config.RAR, bench, o) }()},
		{"scheme", KeyFor(cfg, config.RARLate, bench, opt)},
		{"core field", func() CellKey { c := cfg; c.ROB++; return KeyFor(c, config.RAR, bench, opt) }()},
		{"mem field", func() CellKey { c := cfg; c.Mem.MSHRs++; return KeyFor(c, config.RAR, bench, opt) }()},
		{"bench kernels", func() CellKey {
			b := bench
			b.Kernels = append([]trace.Kernel{}, b.Kernels...)
			b.Kernels[0].Iterations++
			return KeyFor(cfg, config.RAR, b, opt)
		}()},
	}
	for _, m := range mut {
		if m.key == base {
			t.Errorf("changing %s must change the cell key", m.name)
		}
	}

	// Same name, different content: the hash must still separate them.
	c2 := cfg
	c2.IQ++
	if KeyFor(c2, config.RAR, bench, opt) == base {
		t.Error("configs sharing a name but differing in content must not collide")
	}

	// Every leaf field reachable from the core, the scheme and the
	// benchmark, the kernels' Body ops and Streams included, feeds
	// ConfigHash: changing only that leaf must change the hash.
	type cell struct {
		Core   config.Core
		Scheme config.Scheme
		Bench  trace.Benchmark
	}
	c := cell{cfg, config.RAR, cloneBench(t, bench)}
	hash := func() uint64 { return KeyFor(c.Core, c.Scheme, c.Bench, opt).ConfigHash }
	want := hash()
	leaves := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			if v.Len() == 0 {
				t.Errorf("%s is empty, so the fields of its elements go unchecked", path)
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		default:
			old := reflect.New(v.Type()).Elem()
			old.Set(v)
			bump(t, v)
			if hash() == want {
				t.Errorf("changing only %s must change ConfigHash", path)
			}
			v.Set(old)
			leaves++
		}
	}
	walk(reflect.ValueOf(&c).Elem(), "cell")
	if hash() != want {
		t.Fatal("restoring every leaf did not restore ConfigHash")
	}
	t.Logf("%d leaves checked", leaves)

	// The length prefixes: moving an op between two kernels, or a
	// character between two adjacent strings of a key, must change the
	// hash. Op and kernels are all zero, so only the Body lengths tell
	// the two benchmarks apart.
	opIn := func(k int) trace.Benchmark {
		b := trace.Benchmark{Kernels: make([]trace.Kernel, 2)}
		b.Kernels[k].Body = []trace.Op{{}}
		return b
	}
	if KeyFor(cfg, config.RAR, opIn(0), opt).ConfigHash == KeyFor(cfg, config.RAR, opIn(1), opt).ConfigHash {
		t.Error("moving an op between adjacent kernels must change ConfigHash")
	}
	ab, bc := base, base
	ab.Core, ab.Scheme = "ab", "c"
	bc.Core, bc.Scheme = "a", "bc"
	if ab.ETag() == bc.ETag() || fingerprint(&ab) == fingerprint(&bc) {
		t.Error("moving a character between adjacent key strings must change the ETag and the cache file hash")
	}

	// Every built-in core, scheme and benchmark can be fingerprinted, and
	// MatrixKeys enumerates exactly KeyFor's keys in response order.
	cores := append(config.ScaledCores(), cfg)
	schemes := append(config.Schemes(), config.RunaheadVariants()...)
	benches := trace.All()
	keys := MatrixKeys(cores, schemes, benches, opt)
	if len(keys) != len(cores)*len(schemes)*len(benches) {
		t.Fatalf("MatrixKeys returned %d keys for a %d×%d×%d matrix", len(keys), len(cores), len(schemes), len(benches))
	}
	i := 0
	for _, c := range cores {
		for _, s := range schemes {
			for _, b := range benches {
				if k := KeyFor(c, s, b, opt); keys[i] != k {
					t.Errorf("MatrixKeys[%d] = %+v, KeyFor = %+v", i, keys[i], k)
				}
				i++
			}
		}
	}
}

// TestFingerprintAllocatesNothing: the canonical encoder walks a core, a
// scheme and a benchmark without a heap allocation.
func TestFingerprintAllocatesNothing(t *testing.T) {
	cfg := config.Baseline()
	scheme := config.RAR
	bench := twoBenches(t)[0]
	var sum uint64
	allocs := testing.AllocsPerRun(20, func() {
		sum += fingerprint(&cfg) + fingerprint(&scheme) + fingerprint(&bench)
	})
	if allocs != 0 {
		t.Errorf("fingerprinting allocated %.1f times per call, want 0", allocs)
	}
}

// TestFingerprintStringWords pins the string rules of the word encoding:
// the length word keeps adjacent strings apart even when a whole word
// moves from one to the next, and the bytes after the last full word
// still feed the hash.
func TestFingerprintStringWords(t *testing.T) {
	type pair struct{ A, B string }
	for _, c := range []struct {
		name string
		x, y pair
	}{
		{"a word moved between adjacent strings", pair{"baseline", ""}, pair{"", "baseline"}},
		{"a character moved between adjacent strings", pair{"ab", "c"}, pair{"a", "bc"}},
		{"the last byte after a full word", pair{"baseline-a", ""}, pair{"baseline-b", ""}},
		{"the last byte of a full word", pair{"baselinf", ""}, pair{"baseline", ""}},
	} {
		if fingerprint(&c.x) == fingerprint(&c.y) {
			t.Errorf("%s: %q and %q hash alike", c.name, c.x, c.y)
		}
	}
}

// cloneBench deep-copies a benchmark, so a test can change it in place
// without touching the shared built-in definition.
func cloneBench(t *testing.T, b trace.Benchmark) trace.Benchmark {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var out trace.Benchmark
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// bump changes a leaf value in place.
func bump(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "'")
	default:
		t.Fatalf("no way to change a %s", v.Type())
	}
}

// TestEngineSingleflight hammers one cell from many goroutines: exactly
// one simulation must run, everyone else waits for it. Run under -race
// this also exercises the engine's locking.
func TestEngineSingleflight(t *testing.T) {
	var sims atomic.Int64
	e := NewEngine()
	e.runCell = func(cfg config.Core, s config.Scheme, b trace.Benchmark, o Options) (core.Stats, error) {
		sims.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the in-flight window
		return core.Stats{Cycles: 123, Committed: o.Instructions}, nil
	}
	cfg := config.Baseline()
	bench := twoBenches(t)[0]
	opt := smallOpt()

	const callers = 32
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := e.Run(cfg, config.RAR, bench, opt)
			if err != nil || st.Cycles != 123 {
				t.Errorf("run: %v %d", err, st.Cycles)
			}
		}()
	}
	wg.Wait()
	if n := sims.Load(); n != 1 {
		t.Errorf("simulated %d times, want 1", n)
	}
	m := e.Metrics()
	if m.Simulated != 1 || m.Hits != callers-1 {
		t.Errorf("metrics = %+v, want 1 simulated / %d hits", m, callers-1)
	}
}

// TestEngineWaitersOnFailedCellAreNotHits pins the hit-accounting contract
// under concurrent failing cells: a waiter that piles onto an in-flight
// simulation which then FAILS has been served nothing — it must not count
// a cache hit (the engine used to increment Hits before waiting, so every
// waiter on a doomed cell inflated the hit rate), and the failure itself
// is counted exactly once, by the runner.
func TestEngineWaitersOnFailedCellAreNotHits(t *testing.T) {
	var sims atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	e := NewEngine()
	e.runCell = func(cfg config.Core, s config.Scheme, b trace.Benchmark, o Options) (core.Stats, error) {
		if sims.Add(1) == 1 {
			close(started)
		}
		<-release
		return core.Stats{}, errors.New("boom")
	}
	cfg := config.Baseline()
	bench := twoBenches(t)[0]
	opt := smallOpt()

	var wg sync.WaitGroup
	var errCount atomic.Int64
	call := func() {
		defer wg.Done()
		if _, err := e.Run(cfg, config.RAR, bench, opt); err != nil {
			errCount.Add(1)
		}
	}
	wg.Add(1)
	go call()
	<-started // the runner is inside the (gated) simulation

	const waiters = 8
	var ready sync.WaitGroup
	ready.Add(waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			ready.Done()
			call()
		}()
	}
	ready.Wait()
	time.Sleep(20 * time.Millisecond) // let the waiters reach the in-flight entry
	close(release)
	wg.Wait()

	if got := errCount.Load(); got != waiters+1 {
		t.Errorf("%d of %d callers saw the error", got, waiters+1)
	}
	m := e.Metrics()
	if m.Hits != 0 {
		t.Errorf("failed cell produced %d cache hits, want 0", m.Hits)
	}
	if m.Simulated != 0 {
		t.Errorf("failed cell counted as %d successful simulations", m.Simulated)
	}
	// Stragglers that missed the in-flight window re-simulate (and re-fail);
	// every actual simulation attempt is an error, counted exactly once.
	if m.Errors != uint64(sims.Load()) {
		t.Errorf("errors=%d, want one per simulation attempt (%d)", m.Errors, sims.Load())
	}
	if m.Errors == 0 {
		t.Error("no error was counted at all")
	}
}

// TestEnginePersistence: a second engine over the same directory must
// warm-start from disk; a config change must miss.
func TestEnginePersistence(t *testing.T) {
	dir := t.TempDir()
	cores := []config.Core{config.Baseline()}
	schemes := []config.Scheme{config.OoO}
	benches := twoBenches(t)[:1]
	opt := smallOpt()

	e1, err := NewPersistentEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e1.CacheDir(), "v-"+SchemaHash()) {
		t.Errorf("cache dir %q not schema-versioned", e1.CacheDir())
	}
	rs1, err := e1.RunMatrix(cores, schemes, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(e1.CacheDir())
	if err != nil || len(files) != 1 {
		t.Fatalf("cache files = %d (%v), want 1", len(files), err)
	}

	e2, err := NewPersistentEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := e2.RunMatrix(cores, schemes, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := e2.Metrics()
	if m.Simulated != 0 || m.DiskHits != 1 {
		t.Errorf("warm start: simulated=%d diskHits=%d, want 0/1", m.Simulated, m.DiskHits)
	}
	if !reflect.DeepEqual(rs1.cells, rs2.cells) {
		t.Error("disk-loaded cells differ from simulated ones")
	}

	// A different seed must not be served by the persisted cell.
	opt2 := opt
	opt2.Seed++
	if _, err := e2.RunMatrix(cores, schemes, benches, opt2); err != nil {
		t.Fatal(err)
	}
	if m := e2.Metrics(); m.Simulated != 1 {
		t.Errorf("changed seed: simulated=%d, want 1", m.Simulated)
	}

	// A corrupt cache file is a plain miss, never an error.
	e3, err := NewPersistentEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(e3.cellPath(KeyFor(cores[0], schemes[0], benches[0], opt)), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e3.RunMatrix(cores, schemes, benches, opt); err != nil {
		t.Fatal(err)
	}
	if m := e3.Metrics(); m.Simulated != 1 || m.DiskHits != 0 {
		t.Errorf("corrupt entry: simulated=%d diskHits=%d, want 1/0", m.Simulated, m.DiskHits)
	}
}

// stubCell is an instant simulation whose statistics differ per scheme
// and benchmark.
func stubCell(cfg config.Core, s config.Scheme, b trace.Benchmark, o Options) (core.Stats, error) {
	return core.Stats{Scheme: s.Name, Benchmark: b.Name, Cycles: uint64(100*len(s.Name) + len(b.Name)), Committed: o.Instructions}, nil
}

// TestMatrixAnswersMemoryHitsInline: a matrix whose cells are partly in
// memory serves those as hits from the calling goroutine, reported to
// OnCell as "mem", simulates only the rest, and returns the result set a
// cold engine returns.
func TestMatrixAnswersMemoryHitsInline(t *testing.T) {
	cores := []config.Core{config.Baseline()}
	schemes := []config.Scheme{config.OoO, config.PRE, config.RAR}
	benches := twoBenches(t)
	opt := smallOpt()

	var (
		mu         sync.Mutex
		sources    = map[string]int{}
		workerHits int
	)
	e := NewEngine()
	e.runCell = stubCell
	e.OnCell = func(p CellProgress) {
		// A goroutine's stack trace ends with the call that started it.
		buf := make([]byte, 8<<10)
		stack := string(buf[:runtime.Stack(buf, false)])
		mu.Lock()
		sources[p.Source]++
		if p.Source == "mem" && strings.Contains(stack, "created by rarsim/internal/sim.(*Engine).RunMatrixOn") {
			workerHits++
		}
		mu.Unlock()
	}
	if _, err := e.RunMatrix(cores, schemes[:1], benches, opt); err != nil {
		t.Fatal(err)
	}
	rs, err := e.RunMatrix(cores, schemes, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(schemes) * len(benches)
	if m := e.Metrics(); m.Simulated != uint64(cells) || m.Hits != uint64(len(benches)) {
		t.Errorf("simulated=%d hits=%d, want %d/%d", m.Simulated, m.Hits, cells, len(benches))
	}
	mu.Lock()
	if sources["mem"] != len(benches) || sources["sim"] != cells {
		t.Errorf("OnCell sources = %v, want %d mem and %d sim", sources, len(benches), cells)
	}
	if workerHits != 0 {
		t.Errorf("%d memory hits were answered by a matrix worker, want every one inline", workerHits)
	}
	mu.Unlock()

	cold := NewEngine()
	cold.runCell = stubCell
	want, err := cold.RunMatrix(cores, schemes, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.cells, want.cells) {
		t.Errorf("partly warm result set differs from a cold engine's:\n got %v\nwant %v", rs.cells, want.cells)
	}
}

// TestMatrixNegativeCachedCellStillFails: the inline hit pass never
// answers a failed cell. A matrix holding one, beside a cell in memory,
// serves the memory hit and fails with the negative cache's
// FailedCellError, without simulating either cell again.
func TestMatrixNegativeCachedCellStillFails(t *testing.T) {
	e := NewEngine()
	e.SetFailureTTL(time.Minute)
	e.runCell = func(cfg config.Core, s config.Scheme, b trace.Benchmark, o Options) (core.Stats, error) {
		if s.Name == config.RAR.Name {
			return core.Stats{}, errors.New("boom")
		}
		return stubCell(cfg, s, b, o)
	}
	cores := []config.Core{config.Baseline()}
	schemes := []config.Scheme{config.OoO, config.RAR}
	benches := twoBenches(t)[:1]
	opt := smallOpt()
	opt.Parallelism = 1 // OoO simulates before RAR fails

	for pass := 0; pass < 2; pass++ {
		rs, err := e.RunMatrix(cores, schemes, benches, opt)
		var fce *FailedCellError
		if rs != nil || !errors.As(err, &fce) {
			t.Fatalf("pass %d: rs=%v err=%v, want nil set and a FailedCellError", pass, rs, err)
		}
		if want := KeyFor(cores[0], config.RAR, benches[0], opt); fce.Key != want {
			t.Errorf("pass %d: FailedCellError names %s, want %s", pass, fce.Key, want)
		}
	}
	if m := e.Metrics(); m.Simulated != 1 || m.Errors != 1 || m.Hits != 1 || m.ErrHits != 1 {
		t.Errorf("metrics = %+v, want 1 simulated, 1 error, 1 hit, 1 negative-cache hit", m)
	}
}

// TestRunMatrixFailuresAreNotStored: a failed cell must neither appear
// in any result set nor poison the memo cache — a retry simulates it
// again.
func TestRunMatrixFailuresAreNotStored(t *testing.T) {
	fail := atomic.Bool{}
	fail.Store(true)
	e := NewEngine()
	e.runCell = func(cfg config.Core, s config.Scheme, b trace.Benchmark, o Options) (core.Stats, error) {
		if s.Name == "RAR" && fail.Load() {
			return core.Stats{}, errors.New("boom")
		}
		return core.Stats{Cycles: 7, Committed: o.Instructions}, nil
	}
	cores := []config.Core{config.Baseline()}
	schemes := []config.Scheme{config.OoO, config.RAR}
	benches := twoBenches(t)[:1]
	opt := smallOpt()
	opt.Parallelism = 1 // deterministic scheduling: OoO first, then RAR

	rs, err := e.RunMatrix(cores, schemes, benches, opt)
	if rs != nil || err == nil {
		t.Fatalf("rs=%v err=%v, want nil set and an error", rs, err)
	}
	if !strings.Contains(err.Error(), "baseline/RAR/"+benches[0].Name) {
		t.Errorf("error %q does not name the failed cell", err)
	}
	if m := e.Metrics(); m.Errors != 1 || m.Unique != 1 {
		t.Errorf("metrics after failure = %+v, want 1 error and only the OoO cell cached", m)
	}

	// The failure is not memoized: clearing the fault and retrying works,
	// reusing the successful cell and re-simulating the failed one.
	fail.Store(false)
	rs, err = e.RunMatrix(cores, schemes, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rs.Stats("baseline", "RAR", benches[0].Name); !ok {
		t.Error("retried cell missing from the result set")
	}
	if m := e.Metrics(); m.Simulated != 2 {
		t.Errorf("simulated=%d after retry, want 2", m.Simulated)
	}
}

// TestRunMatrixNamesEveryFailedCell: when several in-flight cells fail,
// the wrapped error must name each of them, not just the first.
func TestRunMatrixNamesEveryFailedCell(t *testing.T) {
	benches := twoBenches(t)
	// Both cells start before either finishes, so both failures are
	// in-flight when the first error lands.
	var barrier sync.WaitGroup
	barrier.Add(len(benches))
	e := NewEngine()
	e.runCell = func(cfg config.Core, s config.Scheme, b trace.Benchmark, o Options) (core.Stats, error) {
		barrier.Done()
		barrier.Wait()
		return core.Stats{}, fmt.Errorf("fault in %s", b.Name)
	}
	opt := smallOpt()
	opt.Parallelism = len(benches)
	_, err := e.RunMatrix([]config.Core{config.Baseline()}, []config.Scheme{config.OoO}, benches, opt)
	if err == nil {
		t.Fatal("matrix with failing cells must error")
	}
	for _, b := range benches {
		if !strings.Contains(err.Error(), "baseline/OoO/"+b.Name) {
			t.Errorf("error %q does not name failed cell %s", err, b.Name)
		}
	}
	if !strings.Contains(err.Error(), "2 cell(s) failed") {
		t.Errorf("error %q does not count the failures", err)
	}
}

// TestRunMatrixFailureOrderDeterministic: workers append failures in
// completion order, which varies run to run; the reported error must
// list the failed cells in sorted order, byte-identical across runs.
func TestRunMatrixFailureOrderDeterministic(t *testing.T) {
	benches := twoBenches(t)
	schemes := []config.Scheme{config.OoO, config.PRE, config.RAR}
	cells := len(schemes) * len(benches)
	opt := smallOpt()
	opt.Parallelism = cells

	var first string
	for round := 0; round < 4; round++ {
		// Every cell is in flight before any failure lands, so all of
		// them fail and completion order is genuinely scrambled.
		var barrier sync.WaitGroup
		barrier.Add(cells)
		e := NewEngine()
		e.runCell = func(cfg config.Core, s config.Scheme, b trace.Benchmark, o Options) (core.Stats, error) {
			barrier.Done()
			barrier.Wait()
			return core.Stats{}, fmt.Errorf("fault in %s/%s", s.Name, b.Name)
		}
		_, err := e.RunMatrix([]config.Core{config.Baseline()}, schemes, benches, opt)
		if err == nil {
			t.Fatal("matrix with failing cells must error")
		}
		msg := err.Error()
		lines := strings.Split(msg, "\n")
		if len(lines) != cells {
			t.Fatalf("error names %d cells, want %d:\n%s", len(lines), cells, msg)
		}
		lines[0] = strings.TrimPrefix(lines[0], fmt.Sprintf("sim: %d cell(s) failed: ", cells))
		if !sort.StringsAreSorted(lines) {
			t.Errorf("failed cells not listed in sorted order:\n%s", msg)
		}
		if round == 0 {
			first = msg
		} else if msg != first {
			t.Errorf("round %d error differs from round 0:\n%s\nvs\n%s", round, msg, first)
		}
	}
}

// TestSchemaHashTracksFileNames: the cache directory moves whenever the
// cache file names can. SchemaHash must be the hash of the fingerprint
// cellPath names the reference key's file by, and must change with it,
// so a change to the identity hash or to the canonical encoding, which
// renames every cache file, also renames the directory.
func TestSchemaHashTracksFileNames(t *testing.T) {
	name := filepath.Base((&Engine{dir: "cache"}).cellPath(schemaRefKey))
	hex := strings.TrimSuffix(name[strings.LastIndexByte(name, '_')+1:], ".json")
	fp, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		t.Fatalf("cache file name %q: %v", name, err)
	}
	if got := schemaHashWith(fp); got != SchemaHash() {
		t.Errorf("SchemaHash() = %s, but the hash of the file-name fingerprint %016x is %s", SchemaHash(), fp, got)
	}
	for _, bit := range []uint{0, 17, 63} {
		if schemaHashWith(fp^1<<bit) == SchemaHash() {
			t.Errorf("flipping bit %d of the file-name fingerprint leaves SchemaHash unchanged", bit)
		}
	}
}

// TestSchemaHashStable: the schema hash is deterministic within a build.
func TestSchemaHashStable(t *testing.T) {
	if SchemaHash() != SchemaHash() {
		t.Error("schema hash must be deterministic")
	}
	if len(SchemaHash()) != 16 {
		t.Errorf("schema hash %q not 16 hex chars", SchemaHash())
	}
}
