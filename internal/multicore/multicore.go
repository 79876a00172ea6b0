// Package multicore simulates a chip with several out-of-order cores
// sharing a last-level cache and DRAM — the deployment the paper's
// conclusion points at ("deploying RAR in the OoO cores will further
// enhance soft-error reliability of the overall system", §VI-E).
//
// The model is lockstep — one cycle per core per chip cycle — so LLC
// capacity pressure and DRAM bank/bus queueing between co-runners resolve
// exactly as in the single-core model. The chip runs on core.Lockstep, the
// same driver as a single core, whose stall fast-forward defers provably
// quiescent cores instead of ticking them; by the byte-identical
// equivalence contract that changes wall-clock time only, never results.
// Each core runs its own workload under its own scheme, so homogeneous
// (all-RAR) and heterogeneous (mixed-scheme) chips can both be built.
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
	cores []*core.Core
}

// New builds a chip of len(loads) cores with private L1/L2/MSHRs and a
// shared LLC and DRAM. Core i runs loads[i] with a seed derived from seed
// and its index.
func New(cfg config.Core, loads []Workload, seed uint64) (*System, error) {
	if len(loads) == 0 {
		return nil, fmt.Errorf("multicore: need at least one workload")
	}
	shared := mem.NewSharedLLC(cfg.Mem)
	s := &System{}
	for i, w := range loads {
		gen := trace.New(w.Bench, seed+uint64(i)*0x9E37)
		h := mem.NewHierarchyWithShared(cfg.Mem, shared)
		s.cores = append(s.cores, core.NewWithHierarchy(cfg, w.Scheme, w.Bench.Name, gen, h))
	}
	return s, nil
}

// Cores returns the number of cores.
func (s *System) Cores() int { return len(s.cores) }

// Core exposes core i — tests and tools arm individual cores with audits
// (EnableAudit) or fault-injection campaigns (InjectSamples) before Run;
// the fast-forward clamps to each core's exact-cycle obligations.
func (s *System) Core(i int) *core.Core { return s.cores[i] }

// SetStallFastForward enables or disables the stall fast-forward on every
// core (default: enabled). Disabling forces the classic cycle-by-cycle
// lockstep loop, the reference path of the A/B equivalence tests and of
// perfbench's fast-forward-off re-runs; by the equivalence contract it
// changes wall-clock time only.
func (s *System) SetStallFastForward(enabled bool) {
	for _, c := range s.cores {
		c.SetStallFastForward(enabled)
	}
}

// FFSkippedCycles returns the total cycles the fast-forward has skipped in
// bulk, summed over cores (diagnostics; not part of Stats, which must stay
// identical with the fast-forward on and off).
func (s *System) FFSkippedCycles() uint64 {
	var sum uint64
	for _, c := range s.cores {
		sum += c.FFSkippedCycles()
	}
	return sum
}

// Run simulates until every core has committed instructions, freezing
// cores as they finish (a finished core stops issuing memory traffic), and
// returns per-core statistics in core order. It is one core.Lockstep call:
// the chip's lockstep loop, per-core deferral and deadlock watchdog are the
// single-core ones.
func (s *System) Run(instructions uint64) ([]core.Stats, error) {
	if err := core.Lockstep(s.cores, instructions); err != nil {
		return nil, err
	}
	out := make([]core.Stats, len(s.cores))
	for i, c := range s.cores {
		out[i] = c.Snapshot()
	}
	return out, nil
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
