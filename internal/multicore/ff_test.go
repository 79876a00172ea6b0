package multicore

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rarsim/internal/ace"
	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/mem"
	"rarsim/internal/trace"
)

// chipLoads builds a workload list pairing benches[i] with schemes[i%len].
func chipLoads(t *testing.T, benches []string, schemes []config.Scheme) []Workload {
	t.Helper()
	var out []Workload
	for i, n := range benches {
		b, err := trace.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Workload{Bench: b, Scheme: schemes[i%len(schemes)]})
	}
	return out
}

// runChipFF builds a chip, lets arm tweak individual cores, runs n
// instructions per core with the epoch fast-forward on or off, and
// returns the per-core Stats plus the system.
func runChipFF(t *testing.T, loads []Workload, ff bool, n uint64, arm func(*System)) ([]core.Stats, *System) {
	t.Helper()
	sys, err := New(config.Baseline(), loads, 42)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetStallFastForward(ff)
	if arm != nil {
		arm(sys)
	}
	stats, err := sys.Run(n)
	if err != nil {
		t.Fatalf("ff=%v: %v", ff, err)
	}
	return stats, sys
}

// assertChipsEqual asserts per-core Stats — every field, CommitHash
// included — are byte-identical between the two runs.
func assertChipsEqual(t *testing.T, on, off []core.Stats) {
	t.Helper()
	if len(on) != len(off) {
		t.Fatalf("core count diverges: ff=%d no-ff=%d", len(on), len(off))
	}
	for i := range on {
		if !reflect.DeepEqual(on[i], off[i]) {
			t.Errorf("core %d stats diverge with epoch fast-forward:\n on: %+v\noff: %+v",
				i, on[i], off[i])
		}
	}
}

// TestChipFFEquivalence is the tentpole's chip-level correctness
// contract: for homogeneous chips of every scheme family over a
// memory-intensive mix, and for heterogeneous scheme×bench chips, a run
// with the epoch fast-forward enabled must produce per-core Stats
// byte-identical (reflect.DeepEqual, CommitHash included) to the
// cycle-by-cycle lockstep run.
func TestChipFFEquivalence(t *testing.T) {
	memMix := []string{"libquantum", "gems", "fotonik", "milc"}
	cases := []struct {
		name    string
		benches []string
		schemes []config.Scheme
	}{
		{"all-OoO/mem", memMix, []config.Scheme{config.OoO}},
		{"all-FLUSH/mem", memMix, []config.Scheme{config.FLUSH}},
		{"all-TR/mem", memMix, []config.Scheme{config.TR}},
		{"all-PRE/mem", memMix, []config.Scheme{config.PRE}},
		{"all-RAR/mem", memMix, []config.Scheme{config.RAR}},
		{"hetero-scheme/mem", memMix,
			[]config.Scheme{config.RAR, config.OoO, config.FLUSH, config.TR}},
		{"hetero-scheme/mixed", []string{"libquantum", "exchange2", "mcf", "x264"},
			[]config.Scheme{config.RAR, config.OoO}},
		{"two-core", []string{"mcf", "libquantum"},
			[]config.Scheme{config.RARLate, config.PRE}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			loads := chipLoads(t, tc.benches, tc.schemes)
			on, sysOn := runChipFF(t, loads, true, 10_000, nil)
			off, sysOff := runChipFF(t, loads, false, 10_000, nil)
			assertChipsEqual(t, on, off)
			if sysOff.FFSkippedCycles() != 0 {
				t.Errorf("disabled epoch fast-forward still skipped %d cycles",
					sysOff.FFSkippedCycles())
			}
			_ = sysOn
		})
	}
}

// TestChipFFSkipsAreSubstantial: on an all-memory-bound chip the cores
// spend most cycles parked on DRAM together, so the epoch skip must
// actually collapse a large share of the chip's core-cycles — otherwise
// it is silently disabled and the multicore perf win is gone.
func TestChipFFSkipsAreSubstantial(t *testing.T) {
	loads := chipLoads(t, []string{"libquantum", "gems", "fotonik", "milc"},
		[]config.Scheme{config.OoO})
	_, sys := runChipFF(t, loads, true, 20_000, nil)
	var coreCycles uint64
	for i := 0; i < sys.Cores(); i++ {
		coreCycles += sys.Core(i).CycleCount()
	}
	if skipped := sys.FFSkippedCycles(); skipped < coreCycles/4 {
		t.Errorf("epoch fast-forward skipped only %d of %d core-cycles on a memory-bound chip",
			skipped, coreCycles)
	}
}

// TestChipFFEquivalenceWithObligations: exact-cycle obligations must
// clamp the epoch skip per core — one core runs a fault-injection
// campaign (strikes at precise cycles), another runs the invariant
// auditor (every N cycles), and the chip's per-core results must still be
// byte-identical with the epoch fast-forward on and off. The injection
// outcomes themselves must also agree, or a skipped epoch silently moved
// a strike.
func TestChipFFEquivalenceWithObligations(t *testing.T) {
	mkSamples := func() []core.InjectSample {
		var s []core.InjectSample
		for cyc := uint64(2_003); cyc < 60_000; cyc += 7_919 {
			s = append(s,
				core.InjectSample{Cycle: cyc, Structure: ace.ROB, Slot: int(cyc % 192)},
				core.InjectSample{Cycle: cyc + 13, Structure: ace.IQ, Slot: int(cyc % 92)},
			)
		}
		return s
	}
	loads := chipLoads(t, []string{"libquantum", "gems", "fotonik", "milc"},
		[]config.Scheme{config.RAR, config.OoO})
	run := func(ff bool) ([]core.Stats, []core.InjectSample) {
		samples := mkSamples()
		stats, _ := runChipFF(t, loads, ff, 10_000, func(s *System) {
			s.Core(1).InjectSamples(samples)
			s.Core(2).EnableAudit(1_000)
		})
		return stats, samples
	}
	on, onS := run(true)
	off, offS := run(false)
	assertChipsEqual(t, on, off)
	if !reflect.DeepEqual(onS, offS) {
		for i := range onS {
			if onS[i] != offS[i] {
				t.Errorf("sample %d diverges: ff=%+v no-ff=%+v", i, onS[i], offS[i])
			}
		}
	}
	resolved := 0
	for _, s := range onS {
		if s.Outcome != core.InjectPending {
			resolved++
		}
	}
	if resolved == 0 {
		t.Error("no injection sample resolved — the test exercised nothing")
	}
}

// TestRandomChipsFFEquivalence fuzzes the chip-level contract alongside
// the single-core TestRandomProgramsFFEquivalence: random synthetic
// programs on randomly sized chips with random scheme assignments must
// produce per-core Stats identical with the epoch fast-forward on and
// off. Random dependence structures and stream patterns hunt for
// cross-core event couplings skipEpoch's bound might miss. The programs
// come from a fixed seed, so a failure reproduces.
func TestRandomChipsFFEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	schemes := []config.Scheme{config.OoO, config.FLUSH, config.TR, config.PREEarly, config.RAR}
	f := func(raw []byte, seed uint64) bool {
		nCores := 2 + int(seed%3)
		var loads []Workload
		for i := 0; i < nCores; i++ {
			// Distinct per-core programs: rotate the raw bytes so each
			// core runs a different (but reproducible) kernel.
			rot := append(append([]byte(nil), raw...), byte(i), byte(seed>>uint(8*i)))
			loads = append(loads, Workload{
				Bench:  trace.RandomBenchmark(rot),
				Scheme: schemes[(int(seed%uint64(len(schemes)))+i)%len(schemes)],
			})
		}
		run := func(ff bool) ([]core.Stats, error) {
			sys, err := New(config.Baseline(), loads, seed)
			if err != nil {
				return nil, err
			}
			sys.SetStallFastForward(ff)
			return sys.Run(3_000)
		}
		on, errOn := run(true)
		off, errOff := run(false)
		if errOn != nil || errOff != nil {
			t.Logf("errOn=%v errOff=%v raw=%v seed=%d", errOn, errOff, raw, seed)
			return false
		}
		for i := range on {
			if !reflect.DeepEqual(on[i], off[i]) {
				t.Logf("core %d seed=%d raw=%v:\n on: %+v\noff: %+v", i, seed, raw, on[i], off[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Error(err)
	}
}

// TestChipWatchdogFrozenCoRunner pins the watchdog's false-progress fix:
// a chip where one core finishes and its co-runner is genuinely wedged
// must still trip the no-progress watchdog. (The old per-cycle sum
// covered live cores only, so the finished core dropping out made the
// total *decrease*, which read as progress and reset the deadline.) The
// frozen core here has a zero-entry load queue: its first load can never
// dispatch, the front-end fills, and no event source ever fires.
func TestChipWatchdogFrozenCoRunner(t *testing.T) {
	healthyCfg := config.Baseline()
	frozenCfg := config.Baseline()
	frozenCfg.LQ = 0
	b, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	shared := mem.NewSharedLLC(healthyCfg.Mem)
	mk := func(cfg config.Core, seed uint64) *core.Core {
		h := mem.NewHierarchyWithShared(cfg.Mem, shared)
		return core.NewWithHierarchy(cfg, config.OoO, b.Name, trace.New(b, seed), h)
	}
	healthy := mk(healthyCfg, 42)
	frozen := mk(frozenCfg, 43)
	sys := &System{cores: []*core.Core{healthy, frozen}}
	_, err = sys.Run(2_000)
	if err == nil {
		t.Fatal("frozen co-runner must trip the chip watchdog")
	}
	if !strings.Contains(err.Error(), "no commit") {
		t.Fatalf("want a no-progress report, got: %v", err)
	}
	if healthy.Committed() < 2_000 {
		t.Errorf("healthy core committed %d before the watchdog fired, want 2000 — "+
			"the deadline must only cover the wedged remainder", healthy.Committed())
	}
}
