// Package multicore simulates a chip with several out-of-order cores
// sharing a last-level cache and DRAM — the deployment the paper's
// conclusion points at ("deploying RAR in the OoO cores will further
// enhance soft-error reliability of the overall system", §VI-E).
//
// The model is lockstep — one cycle per core per chip cycle — so LLC
// capacity pressure and DRAM bank/bus queueing between co-runners resolve
// exactly as in the single-core model. The chip-level stall fast-forward
// (see Run) defers provably quiescent cores instead of ticking them, but
// by the byte-identical equivalence contract that changes wall-clock time
// only, never results. Each core runs its own workload under its own
// scheme, so homogeneous (all-RAR) and heterogeneous (mixed-scheme) chips
// can both be built.
package multicore

import (
	"fmt"
	"math"

	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/mem"
	"rarsim/internal/trace"
)

// Workload assigns one core its benchmark and mechanism.
type Workload struct {
	Bench  trace.Benchmark
	Scheme config.Scheme
}

// System is a multicore chip.
type System struct {
	cores  []*core.Core
	hiers  []*mem.Hierarchy
	shared *mem.SharedLLC
	//rarlint:nscaled the chip clock is the skip target: skipQuietGap jumps it to the earliest core event
	chip uint64 // chip cycle

	// noFF disables the chip-level epoch fast-forward, forcing the classic
	// cycle-by-cycle lockstep loop (SetStallFastForward). By the
	// equivalence contract it changes wall-clock time only, never per-core
	// Stats.
	noFF bool

	// nextEv caches each core's NextEventCycle. A core whose cached event
	// lies beyond the current chip cycle is quiescent, and a quiescent
	// core's Step is a state no-op by the fast-forward completeness
	// argument (ff.go leg 1) — so Run defers it entirely: the core is not
	// stepped again until its clock would reach the cached cycle, and the
	// deferred stretch is integrated in one SkipTo when it comes due. The
	// cache is recomputed only at the bottom of a cycle the core actually
	// stepped, which is also the only kind of cycle its state can change.
	nextEv []uint64 //rarlint:unit cycles

	// watchdog is the no-progress deadline in ticked chip cycles
	// (chipWatchdogWindow unless a test shrinks it).
	watchdog uint64
}

// chipWatchdogWindow is the chip-level no-progress deadline: if no core
// commits for this many *ticked* chip cycles — lockstep iterations
// actually simulated, not epochs skipped in bulk — the run reports a
// deadlock. Counting ticks keeps the watchdog's two properties independent
// of the epoch fast-forward, exactly as in the single-core loop: a
// legitimate chip-wide stall longer than the window collapses into a few
// ticks and survives, while a genuine deadlock generates no events, is
// never skipped, and accumulates ticks until the watchdog fires.
const chipWatchdogWindow = 1_000_000

// New builds a chip of len(loads) cores with private L1/L2/MSHRs and a
// shared LLC and DRAM. Core i runs loads[i] with a seed derived from seed
// and its index.
func New(cfg config.Core, loads []Workload, seed uint64) (*System, error) {
	if len(loads) == 0 {
		return nil, fmt.Errorf("multicore: need at least one workload")
	}
	shared := mem.NewSharedLLC(cfg.Mem)
	s := &System{shared: shared, watchdog: chipWatchdogWindow}
	for i, w := range loads {
		gen := trace.New(w.Bench, seed+uint64(i)*0x9E37)
		h := mem.NewHierarchyWithShared(cfg.Mem, shared)
		c := core.NewWithHierarchy(cfg, w.Scheme, w.Bench.Name, gen, h)
		s.cores = append(s.cores, c)
		s.hiers = append(s.hiers, h)
	}
	s.nextEv = make([]uint64, len(s.cores))
	return s, nil
}

// Cores returns the number of cores.
func (s *System) Cores() int { return len(s.cores) }

// Core exposes core i — tests and tools arm individual cores with audits
// (EnableAudit) or fault-injection campaigns (InjectSamples) before Run;
// the epoch fast-forward clamps to each core's exact-cycle obligations.
func (s *System) Core(i int) *core.Core { return s.cores[i] }

// SetStallFastForward enables or disables the chip-level epoch
// fast-forward (default: enabled). Disabling forces the classic
// cycle-by-cycle lockstep loop, the reference path of the A/B equivalence
// tests and of perfbench's fast-forward-off re-runs; by the equivalence
// contract it changes wall-clock time only.
func (s *System) SetStallFastForward(enabled bool) { s.noFF = !enabled }

// FFSkippedCycles returns the total cycles the epoch fast-forward has
// skipped in bulk, summed over cores (diagnostics; not part of Stats,
// which must stay identical with the fast-forward on and off).
func (s *System) FFSkippedCycles() uint64 {
	var sum uint64
	for _, c := range s.cores {
		sum += c.FFSkippedCycles()
	}
	return sum
}

// Run simulates until every core has committed instructions, freezing
// cores as they finish (a finished core stops issuing memory traffic).
// It returns per-core statistics in core order.
//
// The chip-level stall fast-forward defers each core individually: a core
// whose next event lies in the future is not stepped at all — its Steps
// would be state no-ops by the single-core fast-forward completeness
// argument — and is bulk-advanced (SkipTo) over the deferred stretch only
// when its event comes due. When *every* live core is deferred, the chip
// cycle itself jumps to one short of the earliest next event across cores
// (skipQuietGap). Per-core deferral is what makes the skip pay on real
// chips: co-runners' stall windows rarely line up, so a whole-chip epoch
// would be capped by the *intersection* of quiescent windows, while
// deferral collapses each core's own stalls regardless of its neighbours.
//
// Equivalence rides on the single-core argument (DESIGN.md §7) applied
// per core: a deferred core makes no shared-LLC/DRAM/prefetcher Access
// during the window — cross-core coupling only ever happens through those
// calls, and the shared components are pure timestamp machines in between
// — so the shared state every stepping core observes, and the intra-cycle
// core ordering, are identical to the cycle-by-cycle lockstep run. Each
// deferred stretch integrates over frozen state exactly as in the core's
// own skipStall, so per-core Stats stay byte-identical.
func (s *System) Run(instructions uint64) ([]core.Stats, error) {
	running := len(s.cores)
	done := make([]bool, len(s.cores))
	if s.nextEv == nil {
		s.nextEv = make([]uint64, len(s.cores))
	}
	for i, c := range s.cores {
		c.SetCommitLimit(instructions)
		s.nextEv[i] = 0 // due immediately: every core steps its first cycle
	}
	// The watchdog sums committed instructions over *all* cores, finished
	// ones included: a core reaching its commit limit merely stops adding,
	// it never subtracts. (Summing live cores only made the total drop when
	// a core finished, which read as progress and silently granted a
	// genuinely hung co-runner an extra full watchdog window.) It counts
	// ticked chip cycles — loop iterations actually simulated — not wall
	// cycles, so bulk-skipped stretches cannot starve a deadlocked chip of
	// its deadline: a deadlocked chip generates no events, is never
	// skipped, and accumulates ticks until the watchdog fires.
	var ticked, lastProgressTick uint64
	var lastSum uint64
	// Busy-core fast path: probing NextEventCycle costs O(structures), and
	// on a cycle that made forward progress it almost always answers "due
	// next cycle" anyway. Track each core's progress counter and only probe
	// after a cycle that provably did nothing — the same one-sided guard as
	// the single-core loop: skipping the probe can only keep a core ticking
	// (the lockstep status quo), never defer one early, so results are
	// untouched by construction.
	lastProg := make([]uint64, len(s.cores))
	for i, c := range s.cores {
		lastProg[i] = c.Progress() - 1 // force a first-cycle mismatch
	}
	for running > 0 {
		if !s.noFF {
			s.skipQuietGap(done)
		}
		s.chip++
		for i, c := range s.cores {
			if done[i] {
				continue
			}
			if !s.noFF {
				if s.nextEv[i] > s.chip {
					continue // deferred: provably cannot act this cycle
				}
				if c.CycleCount()+1 < s.chip {
					// Integrate the deferred quiet stretch before acting:
					// n-scaled stall accounting, ledger advance, exact
					// audit/injection clamps all happen inside SkipTo.
					c.SkipTo(s.chip - 1)
				}
			}
			c.Step()
			if c.Committed() >= instructions {
				done[i] = true
				running--
				continue
			}
			if !s.noFF {
				if p := c.Progress(); p != lastProg[i] {
					lastProg[i] = p
					s.nextEv[i] = s.chip + 1 // busy: assume due, skip the probe
				} else {
					s.nextEv[i] = c.NextEventCycle()
				}
			}
		}
		var sum uint64
		for _, c := range s.cores {
			sum += c.Committed()
		}
		ticked++
		if sum != lastSum {
			lastSum = sum
			lastProgressTick = ticked
		} else if ticked-lastProgressTick > s.watchdog {
			return nil, fmt.Errorf("multicore: no commit on any core for %d ticked chip cycles at chip cycle %d (%d cores left)",
				s.watchdog, s.chip, running)
		}
	}
	out := make([]core.Stats, len(s.cores))
	for i, c := range s.cores {
		out[i] = c.Snapshot()
	}
	return out, nil
}

// skipQuietGap advances the chip clock to one cycle short of the earliest
// next event across live cores when no core is due on the upcoming cycle —
// the all-deferred case of the per-core skip in Run. Each cached next
// event is already clamped to that core's exact-cycle audit/injection
// obligations and its own MSHR fill bound; on top of that the gap is
// lowered defensively below every hierarchy's earliest outstanding fill,
// finished cores included, so no shared-LLC/DRAM return time can land
// inside a skipped stretch even for a core that stopped being scanned when
// it finished. A chip whose live cores have no pending events at all
// (deadlock) never jumps: the watchdog keeps ticking until it fires.
//
//rarlint:hot
func (s *System) skipQuietGap(done []bool) {
	target := core.NoEventCycle
	for i := range s.cores {
		if done[i] {
			continue
		}
		ev := s.nextEv[i]
		if ev <= s.chip+1 {
			return // a core is due next cycle: nothing to skip
		}
		if ev < target {
			target = ev
		}
	}
	if target == core.NoEventCycle {
		return
	}
	for _, h := range s.hiers {
		if fill, ok := h.NextFillAt(s.chip); ok && fill < target {
			target = fill
		}
	}
	if target <= s.chip+1 {
		return
	}
	s.chip = target - 1
}

// ChipMTTFRel returns the chip-level mean-time-to-failure of a system run
// relative to a baseline run of the same workloads: the chip's failure
// rate is the sum of the per-core derated rates (FIT_i ∝ AVF_i × N_i,
// Equation 4), so
//
//	MTTF_rel = Σ_i AVF_base_i·N_i / Σ_i AVF_i·N_i.
//
// A zero denominator (no cores, or a run with no derated failure rate at
// all) has no meaningful ratio: the result is NaN, never a fake "worst
// possible" 0 — the same zero-collapse family HarmMean/GeoMean already
// guard against.
func ChipMTTFRel(baseline, system []core.Stats) float64 {
	var num, den float64
	for i := range baseline {
		num += baseline[i].AVF() * float64(baseline[i].TotalBits)
	}
	for i := range system {
		den += system[i].AVF() * float64(system[i].TotalBits)
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// ChipThroughputRel returns the chip's aggregate instruction throughput
// relative to a baseline run of the same workloads. A zero baseline
// (no cores, or cores that committed nothing) yields NaN: "relative to
// nothing" is undefined, and 0 would silently read as a total stall.
func ChipThroughputRel(baseline, system []core.Stats) float64 {
	var base, sys float64
	for i := range baseline {
		base += baseline[i].IPC()
	}
	for i := range system {
		sys += system[i].IPC()
	}
	if base == 0 {
		return math.NaN()
	}
	return sys / base
}

// LedgerAVFSum is a helper exposing the chip's summed derated rate, for
// ad-hoc reporting.
func LedgerAVFSum(stats []core.Stats) float64 {
	var sum float64
	for i := range stats {
		sum += stats[i].AVF() * float64(stats[i].TotalBits)
	}
	return sum
}
