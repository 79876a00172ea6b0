package rarsim_test

import (
	"path/filepath"
	"testing"

	"rarsim"
	"rarsim/internal/trace"
)

// TestPublicAPIQuickstart mirrors the README quickstart.
func TestPublicAPIQuickstart(t *testing.T) {
	opt := rarsim.Options{Instructions: 30_000, Warmup: 10_000, Seed: 42}
	st, err := rarsim.Run(rarsim.BaselineConfig(), rarsim.RAR, "mcf", opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 30_000 || st.IPC() <= 0 || st.TotalABC == 0 {
		t.Errorf("implausible stats: %+v", st)
	}
	if _, err := rarsim.Run(rarsim.BaselineConfig(), rarsim.RAR, "nope", opt); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestPublicMatrix(t *testing.T) {
	opt := rarsim.Options{Instructions: 20_000, Warmup: 5_000, Seed: 42}
	benches := []rarsim.Benchmark{}
	for _, n := range []string{"libquantum", "gems"} {
		b, err := rarsim.BenchmarkByName(n)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, b)
	}
	rs, err := rarsim.RunMatrix(
		[]rarsim.CoreConfig{rarsim.BaselineConfig()},
		[]rarsim.Scheme{rarsim.OoO, rarsim.PRE, rarsim.RAR},
		benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m := rs.MTTF("baseline", "RAR", "libquantum"); m <= 0 {
		t.Errorf("RAR MTTF = %v", m)
	}
	if i := rs.IPCNorm("baseline", "PRE", "gems"); i <= 0 {
		t.Errorf("PRE IPC norm = %v", i)
	}
}

// TestPersistentEngineWarmStarts exercises the engine facade: a
// persistent engine over a directory another engine filled warm-starts
// from disk.
func TestPersistentEngineWarmStarts(t *testing.T) {
	opt := rarsim.Options{Instructions: 20_000, Warmup: 5_000, Seed: 7}
	b, err := rarsim.BenchmarkByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	cores := []rarsim.CoreConfig{rarsim.BaselineConfig()}
	schemes := []rarsim.Scheme{rarsim.OoO, rarsim.RAR}
	benches := []rarsim.Benchmark{b}

	dir := filepath.Join(t.TempDir(), "cache")
	eng, err := rarsim.NewPersistentEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunMatrix(cores, schemes, benches, opt); err != nil {
		t.Fatal(err)
	}
	warm, err := rarsim.NewPersistentEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.RunMatrix(cores, schemes, benches, opt); err != nil {
		t.Fatal(err)
	}
	if m := warm.Metrics(); m.Simulated != 0 || m.DiskHits != uint64(len(schemes)) {
		t.Errorf("warm start metrics = %+v, want 0 simulated / %d disk hits", m, len(schemes))
	}
}

func TestSuiteListings(t *testing.T) {
	if len(rarsim.Benchmarks()) != len(rarsim.MemoryIntensiveBenchmarks())+len(rarsim.ComputeIntensiveBenchmarks()) {
		t.Error("suite split inconsistent")
	}
	if len(rarsim.BenchmarkNames()) == 0 {
		t.Error("no benchmark names")
	}
	if len(rarsim.Schemes()) != 5 || len(rarsim.RunaheadVariants()) != 7 {
		t.Error("scheme listings wrong")
	}
	if len(rarsim.ScaledConfigs()) != 4 {
		t.Error("Table I configs wrong")
	}
	if _, err := rarsim.SchemeByName("RAR"); err != nil {
		t.Error(err)
	}
	if rarsim.DefaultOptions().Instructions == 0 {
		t.Error("default options empty")
	}
}

// TestSuiteCalibration verifies the paper's MPKI>8 classification rule on
// the baseline core for every benchmark — the property that defines the
// memory-intensive set (§IV-A). Runs are long enough to get past cold
// caches.
func TestSuiteCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	opt := rarsim.Options{Instructions: 150_000, Warmup: 150_000, Seed: 42}
	type result struct {
		name   string
		memory bool
		mpki   float64
		ipc    float64
	}
	results := make(chan result, len(rarsim.Benchmarks()))
	for _, b := range rarsim.Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			st, err := rarsim.Run(rarsim.BaselineConfig(), rarsim.OoO, b.Name, opt)
			if err != nil {
				t.Fatal(err)
			}
			results <- result{b.Name, b.MemoryIntensive, st.MPKI(), st.IPC()}
			if b.MemoryIntensive && st.MPKI() <= 8 {
				t.Errorf("%s: classified memory-intensive but MPKI = %.1f",
					b.Name, st.MPKI())
			}
			if !b.MemoryIntensive && st.MPKI() > 8 {
				t.Errorf("%s: classified compute-intensive but MPKI = %.1f",
					b.Name, st.MPKI())
			}
			if st.IPC() <= 0.01 || st.IPC() > 4 {
				t.Errorf("%s: IPC %.3f out of plausible range", b.Name, st.IPC())
			}
		})
	}
}

// TestTraceReplayEquivalence records a trace of a synthetic benchmark and
// replays it through the simulator: the replayed run must produce the
// exact same cycle count, ABC and commit fingerprint as generating on the
// fly — the trace carries everything the timing model consumes.
func TestTraceReplayEquivalence(t *testing.T) {
	opt := rarsim.Options{Instructions: 30_000, Warmup: 5_000, Seed: 42}
	live, err := rarsim.Run(rarsim.BaselineConfig(), rarsim.RAR, "gems", opt)
	if err != nil {
		t.Fatal(err)
	}

	b, err := rarsim.BenchmarkByName("gems")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "gems.trace.gz")
	// Record comfortably more than warmup+measured plus speculation
	// lookahead so the replay never wraps.
	if err := trace.WriteTraceFile(path, b.Name, trace.New(b, opt.Seed), 60_000); err != nil {
		t.Fatal(err)
	}
	replay, err := rarsim.RunTraceFile(rarsim.BaselineConfig(), rarsim.RAR, path, opt)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Cycles != live.Cycles || replay.TotalABC != live.TotalABC ||
		replay.CommitHash != live.CommitHash {
		t.Errorf("replay differs from live run:\n live   cyc=%d abc=%d hash=%#x\n replay cyc=%d abc=%d hash=%#x",
			live.Cycles, live.TotalABC, live.CommitHash,
			replay.Cycles, replay.TotalABC, replay.CommitHash)
	}
	if replay.Benchmark != "gems" {
		t.Errorf("trace name not propagated: %q", replay.Benchmark)
	}
}

// TestRunTimelineCoversTheRun pins the AVF timeline: its windows tile
// the run from cycle 0 and together hold every ACE bit-cycle the run
// resolved, which the same run reports as its TotalABC.
func TestRunTimelineCoversTheRun(t *testing.T) {
	const window = 10_000
	opt := rarsim.Options{Instructions: 25_000, Seed: 42}
	series, bits, err := rarsim.RunTimeline(rarsim.BaselineConfig(), rarsim.RAR, "mcf", opt, window)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rarsim.Run(rarsim.BaselineConfig(), rarsim.RAR, "mcf", opt)
	if err != nil {
		t.Fatal(err)
	}
	if bits != st.TotalBits {
		t.Errorf("timeline bits = %d, want %d", bits, st.TotalBits)
	}
	if want := int((st.Cycles-1)/window) + 1; len(series) != want {
		t.Fatalf("%d windows over %d cycles, want %d", len(series), st.Cycles, want)
	}
	var sum uint64
	for i, w := range series {
		if w.StartCycle != uint64(i)*window {
			t.Errorf("window %d starts at cycle %d, want %d", i, w.StartCycle, i*window)
		}
		sum += w.ABC
	}
	if sum != st.TotalABC {
		t.Errorf("timeline ABC sums to %d, want the run's %d", sum, st.TotalABC)
	}
}
