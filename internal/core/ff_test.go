package core

import (
	"reflect"
	"strings"
	"testing"

	"rarsim/internal/ace"
	"rarsim/internal/config"
	"rarsim/internal/mem"
	"rarsim/internal/trace"
)

// runWhole runs warmup+measured instructions on c and returns both the
// measured window's Stats (RunWarm's result) and the whole run's
// (c.Snapshot(), warmup included). The A/B harnesses compare both, so a
// divergence confined to the warmup window is not subtracted away.
func runWhole(c *Core, warmup, measured uint64) ([2]Stats, error) {
	st, err := c.RunWarm(warmup, measured)
	return [2]Stats{st, c.Snapshot()}, err
}

// runFF builds a core for (scheme, bench) and runs warmup+measured with the
// stall fast-forward on or off, returning the measured and whole-run Stats
// (runWhole) and the core.
func runFF(t *testing.T, scheme config.Scheme, benchName string, ff bool,
	warmup, measured uint64) ([2]Stats, *Core) {
	t.Helper()
	b, err := trace.ByName(benchName)
	if err != nil {
		t.Fatal(err)
	}
	c := New(config.Baseline(), scheme, b, 42)
	c.SetStallFastForward(ff)
	st, err := runWhole(c, warmup, measured)
	if err != nil {
		t.Fatalf("%s/%s ff=%v: %v", scheme.Name, benchName, ff, err)
	}
	return st, c
}

// TestFFEquivalence is the fast-forward's correctness contract: for every
// scheme, on memory-intensive and compute-intensive benchmarks, a run
// with the stall fast-forward enabled must produce Stats — every field,
// including CommitHash, the cycle count and the ACE/attribution counters,
// over the measured window and over the whole run — byte-identical to the
// cycle-by-cycle run. PRE and RAR run out of physical registers in
// runahead on soplex and lbm, so those two cover the skip over a
// register-stalled runahead dispatch.
func TestFFEquivalence(t *testing.T) {
	schemes := append(config.Schemes(), config.RunaheadVariants()...)
	for _, bn := range []string{"libquantum", "mcf", "exchange2", "soplex", "lbm"} {
		for _, s := range schemes {
			s, bn := s, bn
			t.Run(bn+"/"+s.Name, func(t *testing.T) {
				t.Parallel()
				on, _ := runFF(t, s, bn, true, 5_000, 30_000)
				off, conOff := runFF(t, s, bn, false, 5_000, 30_000)
				if !reflect.DeepEqual(on, off) {
					t.Errorf("stats (measured window, whole run) diverge with fast-forward:\n on: %+v\noff: %+v", on, off)
				}
				if conOff.FFSkippedCycles() != 0 {
					t.Errorf("disabled fast-forward still skipped %d cycles",
						conOff.FFSkippedCycles())
				}
			})
		}
	}
}

// TestFFSkipsAreSubstantial: on a memory-intensive benchmark the baseline
// core spends most of its time waiting on DRAM, so the fast-forward must
// actually skip a large share of the cycles — otherwise it is silently
// disabled and the perf win is gone.
func TestFFSkipsAreSubstantial(t *testing.T) {
	_, c := runFF(t, config.OoO, "libquantum", true, 5_000, 30_000)
	total := c.CycleCount()
	skipped := c.FFSkippedCycles()
	if skipped < total/4 {
		t.Errorf("fast-forward skipped only %d of %d cycles on a memory-bound run",
			skipped, total)
	}
}

// TestFFSkipsRunaheadStalls: in runahead mode a dispatch head that waits
// for a PRDQ entry or a physical register is quiescent until a drain,
// a completion or the runahead exit, so RAR's long runahead intervals on
// mcf and soplex must be skipped rather than ticked.
func TestFFSkipsRunaheadStalls(t *testing.T) {
	for _, bn := range []string{"mcf", "soplex"} {
		_, c := runFF(t, config.RAR, bn, true, 5_000, 30_000)
		total := c.CycleCount()
		skipped := c.FFSkippedCycles()
		if skipped < total/4 {
			t.Errorf("RAR/%s: fast-forward skipped only %d of %d cycles", bn, skipped, total)
		}
	}
}

// TestFFEquivalenceWithAudit: the invariant auditor must still run on its
// exact cycles (the skip clamps to the next audit multiple), and the
// audited run must match the unaudited one.
func TestFFEquivalenceWithAudit(t *testing.T) {
	run := func(ff bool) [2]Stats {
		b, err := trace.ByName("mcf")
		if err != nil {
			t.Fatal(err)
		}
		c := New(config.Baseline(), config.RAR, b, 42)
		c.EnableAudit(1_000)
		c.SetStallFastForward(ff)
		st, err := runWhole(c, 5_000, 30_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	on, off := run(true), run(false)
	if !reflect.DeepEqual(on, off) {
		t.Errorf("audited stats (measured window, whole run) diverge with fast-forward:\n on: %+v\noff: %+v", on, off)
	}
}

// TestFFEquivalenceWithInjection: fault-injection samples strike at exact
// cycles; the skip must clamp to each pending sample so every trial sees
// the same machine state — and therefore resolves to the same outcome —
// with fast-forward on and off.
func TestFFEquivalenceWithInjection(t *testing.T) {
	mkSamples := func() []InjectSample {
		var s []InjectSample
		// A spread of strikes across structures, deliberately landing in
		// the long quiescent windows a memory-bound run produces.
		for cyc := uint64(7_001); cyc < 120_000; cyc += 7_919 {
			s = append(s,
				InjectSample{Cycle: cyc, Structure: ace.ROB, Slot: int(cyc % 192)},
				InjectSample{Cycle: cyc + 13, Structure: ace.IQ, Slot: int(cyc % 92)},
				InjectSample{Cycle: cyc + 29, Structure: ace.LQ, Slot: int(cyc % 64)},
			)
		}
		return s
	}
	run := func(ff bool) ([]InjectSample, [2]Stats) {
		b, err := trace.ByName("libquantum")
		if err != nil {
			t.Fatal(err)
		}
		c := New(config.Baseline(), config.RAR, b, 42)
		samples := mkSamples()
		c.InjectSamples(samples)
		c.SetStallFastForward(ff)
		st, err := runWhole(c, 5_000, 30_000)
		if err != nil {
			t.Fatal(err)
		}
		return samples, st
	}
	onS, on := run(true)
	offS, off := run(false)
	if !reflect.DeepEqual(on, off) {
		t.Errorf("injected stats (measured window, whole run) diverge with fast-forward:\n on: %+v\noff: %+v", on, off)
	}
	if !reflect.DeepEqual(onS, offS) {
		for i := range onS {
			if onS[i] != offS[i] {
				t.Errorf("sample %d diverges: ff=%+v no-ff=%+v", i, onS[i], offS[i])
			}
		}
	}
	resolved := 0
	for _, s := range onS {
		if s.Outcome != InjectPending {
			resolved++
		}
	}
	if resolved == 0 {
		t.Error("no injection sample resolved — the test exercised nothing")
	}
}

// slowDRAMCore returns the baseline core with a DRAM whose fixed controller
// overhead alone exceeds the watchdog window: every LLC miss stalls the
// pipeline for longer than the old wall-cycle watchdog would tolerate.
func slowDRAMCore() config.Core {
	cfg := config.Baseline()
	cfg.Mem.DRAM.Ctrl = watchdogWindow + 100_000
	return cfg
}

// TestWatchdogSurvivesLongStall: a legitimate stall longer than the
// watchdog window — here a pathologically slow DRAM — must not be reported
// as a deadlock. The fast-forward collapses the stall into a handful of
// ticked cycles, and the watchdog counts ticks, not wall cycles. (Before
// this change the run aborted with a spurious deadlock error.)
func TestWatchdogSurvivesLongStall(t *testing.T) {
	b, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	c := New(slowDRAMCore(), config.OoO, b, 42)
	st, err := c.Run(2_000)
	if err != nil {
		t.Fatalf("slow-DRAM run must survive the watchdog: %v", err)
	}
	if st.Committed != 2_000 {
		t.Fatalf("committed %d, want 2000", st.Committed)
	}
	if st.Cycles <= watchdogWindow {
		t.Fatalf("run finished in %d cycles — DRAM not actually slow, test is vacuous", st.Cycles)
	}
}

// TestWatchdogLongStallStillTripsWithoutFF documents the flip side: with
// the fast-forward disabled the same stall is ticked cycle by cycle, so the
// watchdog (correctly, per its contract: ticked cycles without commit)
// still reports it. A cycle-by-cycle reference run with an exotic memory
// config sees the pre-existing behaviour, not silent hours of simulation.
func TestWatchdogLongStallStillTripsWithoutFF(t *testing.T) {
	b, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	c := New(slowDRAMCore(), config.OoO, b, 42)
	c.SetStallFastForward(false)
	if _, err := c.Run(2_000); err == nil {
		t.Fatal("cycle-by-cycle run over a >window stall must trip the watchdog")
	}
}

// TestWatchdogCatchesDeadlock: a genuine deadlock — here a core whose load
// queue has zero entries, so the first load can never dispatch — must still
// trip the watchdog with fast-forward enabled: no event source fires, so
// nothing is skipped and ticked cycles accumulate.
func TestWatchdogCatchesDeadlock(t *testing.T) {
	cfg := config.Baseline()
	cfg.LQ = 0
	b, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	c := New(cfg, config.OoO, b, 42)
	_, err = c.Run(2_000)
	if err == nil {
		t.Fatal("LQ=0 deadlock must trip the watchdog")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want a deadlock report, got: %v", err)
	}
}

// TestLockstepDeadlockNamesLiveCores: single-core and chip runs share one
// watchdog, so its report must read as both a deadlock and a missing
// commit, and name each core still short of the target — here the
// wedged co-runner (zero-entry load queue) — but not the core that
// finished.
func TestLockstepDeadlockNamesLiveCores(t *testing.T) {
	b, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	frozenCfg := config.Baseline()
	frozenCfg.LQ = 0
	shared := mem.NewSharedLLC(frozenCfg.Mem)
	mk := func(cfg config.Core, seed uint64) *Core {
		return NewWithHierarchy(cfg, config.OoO, b.Name, trace.New(b, seed), mem.NewHierarchyWithShared(cfg.Mem, shared))
	}
	err = Lockstep([]*Core{mk(config.Baseline(), 42), mk(frozenCfg, 43)}, 2_000)
	if err == nil {
		t.Fatal("a wedged co-runner must trip the watchdog")
	}
	for _, want := range []string{"deadlock", "no commit", "core 1 (", "bench=libquantum"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("report %q lacks %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "core 0 (") {
		t.Errorf("report %q names core 0, which finished", err)
	}
}
