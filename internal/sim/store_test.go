package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/trace"
)

// stubEngine returns a persistent engine whose simulations are instant
// stubs producing per-benchmark-distinct statistics.
func stubEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := NewPersistentEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	e.runCell = func(cfg config.Core, s config.Scheme, b trace.Benchmark, o Options) (core.Stats, error) {
		return core.Stats{Cycles: uint64(100 + len(b.Name)), Committed: o.Instructions}, nil
	}
	return e
}

func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	list, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range list {
		names = append(names, de.Name())
	}
	return names
}

// TestTempFileSweep plants abandoned ".cell-*" temp files — the litter a
// process killed between CreateTemp and Rename leaves behind — and
// asserts that the next NewPersistentEngine removes them without
// touching valid cells.
func TestTempFileSweep(t *testing.T) {
	dir := t.TempDir()
	e1 := stubEngine(t, dir)
	bench := twoBenches(t)[0]
	opt := smallOpt()
	if _, err := e1.Run(config.Baseline(), config.OoO, bench, opt); err != nil {
		t.Fatal(err)
	}

	// Orphans from hypothetical killed writers, plus a decoy that merely
	// resembles one (no ".cell-" prefix) and must survive untouched.
	for _, name := range []string{".cell-123456", ".cell-999999"} {
		if err := os.WriteFile(filepath.Join(e1.CacheDir(), name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e2 := stubEngine(t, dir)
	var cells int
	for _, name := range cacheFiles(t, e2.CacheDir()) {
		if strings.HasPrefix(name, ".cell-") {
			t.Errorf("orphan temp file %q survived the sweep", name)
		}
		if strings.HasSuffix(name, ".json") {
			cells++
		}
	}
	if cells != 1 {
		t.Errorf("%d cell files after sweep, want 1", cells)
	}
	// The surviving cell still serves warm starts.
	if _, err := e2.Run(config.Baseline(), config.OoO, bench, opt); err != nil {
		t.Fatal(err)
	}
	if m := e2.Metrics(); m.DiskHits != 1 || m.Simulated != 0 {
		t.Errorf("after sweep: diskHits=%d simulated=%d, want 1/0", m.DiskHits, m.Simulated)
	}
}

// TestDiskEviction pins the LRU contract: an entry-count budget evicts
// the least recently *used* cell (a disk hit refreshes recency, so the
// oldest-written-but-recently-read cell survives), eviction only forgets
// warm-start state, and the engine gauges report it.
func TestDiskEviction(t *testing.T) {
	dir := t.TempDir()
	e1 := stubEngine(t, dir)
	cfg := config.Baseline()
	benches := twoBenches(t)
	opt := smallOpt()

	// Three cells: (OoO, PRE, RAR) on one bench, written in that order.
	schemes := []config.Scheme{config.OoO, config.PRE, config.RAR}
	for _, s := range schemes {
		if _, err := e1.Run(cfg, s, benches[0], opt); err != nil {
			t.Fatal(err)
		}
	}
	// Force distinct, ordered mtimes so the next engine's LRU scan sees
	// the write order regardless of filesystem timestamp granularity.
	base := time.Unix(1_700_000_000, 0)
	for i, s := range schemes {
		path := e1.cellPath(KeyFor(cfg, s, benches[0], opt))
		if err := os.Chtimes(path, base.Add(time.Duration(i)*time.Second), base.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}

	e2 := stubEngine(t, dir)
	e2.SetDiskBudget(0, 3)
	// A disk hit on the oldest cell (OoO) refreshes its LRU position...
	if _, err := e2.Run(cfg, config.OoO, benches[0], opt); err != nil {
		t.Fatal(err)
	}
	// ...so admitting a fourth cell must evict PRE, now least recent.
	if _, err := e2.Run(cfg, config.OoO, benches[1], opt); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(e2.cellPath(KeyFor(cfg, config.PRE, benches[0], opt))); !os.IsNotExist(err) {
		t.Errorf("LRU cell (PRE) not evicted: stat err = %v", err)
	}
	for _, want := range []CellKey{
		KeyFor(cfg, config.OoO, benches[0], opt),
		KeyFor(cfg, config.RAR, benches[0], opt),
		KeyFor(cfg, config.OoO, benches[1], opt),
	} {
		if _, err := os.Stat(e2.cellPath(want)); err != nil {
			t.Errorf("cell %s wrongly evicted: %v", want, err)
		}
	}
	m := e2.Metrics()
	if m.Evicted != 1 || m.DiskEntries != 3 || m.DiskBytes <= 0 {
		t.Errorf("gauges = evicted %d, entries %d, bytes %d; want 1/3/>0", m.Evicted, m.DiskEntries, m.DiskBytes)
	}

	// An evicted cell is not an error — it simply re-simulates.
	e3 := stubEngine(t, dir)
	if _, err := e3.Run(cfg, config.PRE, benches[0], opt); err != nil {
		t.Fatal(err)
	}
	if m := e3.Metrics(); m.Simulated != 1 {
		t.Errorf("evicted cell: simulated=%d, want 1 (re-simulated)", m.Simulated)
	}
}

// TestDiskByteBudget: a byte budget trims immediately on SetDiskBudget
// and holds on later writes.
func TestDiskByteBudget(t *testing.T) {
	dir := t.TempDir()
	e := stubEngine(t, dir)
	cfg := config.Baseline()
	benches := twoBenches(t)
	opt := smallOpt()
	for _, b := range benches {
		if _, err := e.Run(cfg, config.OoO, b, opt); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.DiskEntries != 2 || m.DiskBytes <= 0 {
		t.Fatalf("gauges before trim: %d entries, %d bytes", m.DiskEntries, m.DiskBytes)
	}
	// Budget below the total but above a single cell: exactly one must go.
	e.SetDiskBudget(m.DiskBytes-1, 0)
	m = e.Metrics()
	if m.DiskEntries != 1 || m.Evicted != 1 {
		t.Errorf("after trim: entries=%d evicted=%d, want 1/1", m.DiskEntries, m.Evicted)
	}
}

// TestMetricsWhileMatrixEvicts polls Engine.Metrics from a second
// goroutine while a two-wide matrix on a persistent engine writes cell
// files over an entry budget, so every write evicts. Under -race it
// checks the locks that keep those snapshots safe: the engine lock in
// Metrics and the store lock in add and gauges.
func TestMetricsWhileMatrixEvicts(t *testing.T) {
	e := stubEngine(t, t.TempDir())
	e.SetDiskBudget(0, 2)
	schemes := []config.Scheme{config.OoO, config.FLUSH, config.PRE, config.RAR}
	benches := twoBenches(t)
	opt := smallOpt()
	opt.Parallelism = 2

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			if m := e.Metrics(); m.DiskEntries > 2 {
				t.Errorf("snapshot holds %d disk entries over a budget of 2", m.DiskEntries)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	_, err := e.RunMatrix([]config.Core{config.Baseline()}, schemes, benches, opt)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	cells := uint64(len(schemes) * len(benches))
	if m := e.Metrics(); m.Simulated != cells || m.DiskEntries != 2 || m.Evicted != cells-2 {
		t.Errorf("after the matrix: simulated=%d entries=%d evicted=%d, want %d/2/%d",
			m.Simulated, m.DiskEntries, m.Evicted, cells, cells-2)
	}
}

// TestCorruptedStatsReSimulate: a cache file whose Stats changed after
// they were written no longer matches its stored fingerprint. The next
// request re-simulates, serves the original Stats and rewrites the file,
// which the request after that loads from disk again.
func TestCorruptedStatsReSimulate(t *testing.T) {
	dir := t.TempDir()
	cfg, bench, opt := config.Baseline(), twoBenches(t)[0], smallOpt()
	want, err := stubEngine(t, dir).Run(cfg, config.OoO, bench, opt)
	if err != nil {
		t.Fatal(err)
	}

	e := stubEngine(t, dir)
	path := e.cellPath(KeyFor(cfg, config.OoO, bench, opt))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := fmt.Sprintf(`"Cycles":%d,`, want.Cycles)
	if !bytes.Contains(data, []byte(old)) {
		t.Fatalf("cache file lacks %s:\n%s", old, data)
	}
	flipped := bytes.Replace(data, []byte(old), []byte(fmt.Sprintf(`"Cycles":%d,`, want.Cycles+1)), 1)
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(cfg, config.OoO, bench, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.Simulated != 1 || m.DiskHits != 0 {
		t.Errorf("corrupted Stats: simulated=%d diskHits=%d, want 1/0", m.Simulated, m.DiskHits)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("served %+v, want the original %+v", got, want)
	}

	e2 := stubEngine(t, dir)
	got, err = e2.Run(cfg, config.OoO, bench, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m := e2.Metrics(); m.Simulated != 0 || m.DiskHits != 1 {
		t.Errorf("rewritten file: simulated=%d diskHits=%d, want 0/1", m.Simulated, m.DiskHits)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rewritten file served %+v, want %+v", got, want)
	}
}

// FuzzLoadDisk throws arbitrary bytes at loadDisk as the cache file of
// one key. Whatever the bytes, loadDisk either misses or returns exactly
// the Stats stored for that key. The key is a literal rather than a
// KeyFor result, so the committed corpus under testdata/fuzz still names
// it after the identity hash changes. The file storeDisk writes is added
// as a seed at run time, because its StatsHash does depend on the hash.
func FuzzLoadDisk(f *testing.F) {
	key := CellKey{Core: "baseline", Scheme: "RAR", Bench: "mcf", Instructions: 20_000, Warmup: 5_000, Seed: 42, ConfigHash: 0x0123456789abcdef}
	// Every leaf of the stored Stats is distinct and non-zero, so a file
	// that drops or moves any field changes what it decodes to.
	var stored core.Stats
	n := uint64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.String:
			n++
			v.SetString(fmt.Sprintf("s%d", n))
		case reflect.Uint64:
			n++
			v.SetUint(n * 1_000_003)
		default:
			f.Fatalf("no fill for a %s", v.Type())
		}
	}
	fill(reflect.ValueOf(&stored).Elem())

	e, err := NewPersistentEngine(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	e.storeDisk(key, stored, time.Second)
	path := e.cellPath(key)
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if st, ok := e.loadDisk(key); !ok || !reflect.DeepEqual(st, stored) {
		f.Fatal("the file storeDisk wrote does not load back")
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, ok := e.loadDisk(key); ok && !reflect.DeepEqual(st, stored) {
			t.Errorf("loadDisk accepted Stats other than the stored ones:\n got %+v\nwant %+v", st, stored)
		}
	})
}
