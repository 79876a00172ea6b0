// Package rarsim is a cycle-level out-of-order core simulator that
// reproduces "Reliability-Aware Runahead" (Naithani & Eeckhout, HPCA
// 2022): runahead execution variants — traditional runahead, Precise
// Runahead Execution (PRE), and Reliability-Aware Runahead (RAR) — with
// full ACE-bit soft-error vulnerability accounting, a TAGE front-end, a
// three-level cache hierarchy with a DDR3-style DRAM model, and a
// deterministic synthetic SPEC-like workload suite.
//
// Quick start:
//
//	st, err := rarsim.Run(rarsim.BaselineConfig(), rarsim.RAR, "mcf", rarsim.DefaultOptions())
//	if err != nil { ... }
//	fmt.Println(st.IPC(), st.TotalABC)
//
// For paper-style comparisons, run a matrix and read normalised metrics:
//
//	rs, err := rarsim.RunMatrix(
//		[]rarsim.CoreConfig{rarsim.BaselineConfig()},
//		rarsim.Schemes(),
//		rarsim.MemoryIntensiveBenchmarks(),
//		rarsim.DefaultOptions())
//	mttf := rs.MTTF("baseline", "RAR", "mcf") // normalised to OoO
//
// The cmd/experiments binary regenerates every table and figure of the
// paper's evaluation; see DESIGN.md and EXPERIMENTS.md.
package rarsim

import (
	"rarsim/internal/ace"
	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/energy"
	"rarsim/internal/inject"
	"rarsim/internal/mem"
	"rarsim/internal/multicore"
	"rarsim/internal/sim"
	"rarsim/internal/trace"
)

// CoreConfig describes a simulated core (sizes, functional units, memory
// hierarchy). See BaselineConfig and ScaledConfigs.
type CoreConfig = config.Core

// Scheme selects the evaluated mechanism (OoO baseline, FLUSH, TR, PRE,
// RAR, ...).
type Scheme = config.Scheme

// Stats is the result of one simulation run.
type Stats = core.Stats

// Options controls simulation length, seeding and parallelism.
type Options = sim.Options

// ResultSet holds a completed experiment matrix with normalised-metric
// accessors.
type ResultSet = sim.ResultSet

// Benchmark is a synthetic workload description.
type Benchmark = trace.Benchmark

// PrefetchMode selects hardware-prefetcher placement for CoreConfig.WithPrefetch.
type PrefetchMode = mem.PrefetchMode

// Prefetcher placements (Figure 11).
const (
	PrefetchOff = mem.PrefetchOff
	PrefetchL3  = mem.PrefetchL3
	PrefetchAll = mem.PrefetchAll
)

// The evaluated schemes (§V, Table IV).
var (
	OoO      = config.OoO
	FLUSH    = config.FLUSH
	TR       = config.TR
	TREarly  = config.TREarly
	PRE      = config.PRE
	PREEarly = config.PREEarly
	RARLate  = config.RARLate
	RAR      = config.RAR
)

// BaselineConfig returns the paper's Table II baseline core.
func BaselineConfig() CoreConfig { return config.Baseline() }

// ScaledConfigs returns the four Table I configurations (Core-1..Core-4).
func ScaledConfigs() []CoreConfig { return config.ScaledCores() }

// Schemes returns the five headline configurations of §V.
func Schemes() []Scheme { return config.Schemes() }

// RunaheadVariants returns the Table IV design space plus FLUSH (Fig. 9).
func RunaheadVariants() []Scheme { return config.RunaheadVariants() }

// SchemeByName looks a scheme up by its paper name ("RAR", "PRE", ...).
func SchemeByName(name string) (Scheme, error) { return config.SchemeByName(name) }

// Benchmarks returns the full synthetic suite, memory-intensive first.
func Benchmarks() []Benchmark { return trace.All() }

// MemoryIntensiveBenchmarks returns the MPKI>8 suite the paper's headline
// results use.
func MemoryIntensiveBenchmarks() []Benchmark { return trace.MemoryIntensive() }

// ComputeIntensiveBenchmarks returns the compute-intensive foil suite.
func ComputeIntensiveBenchmarks() []Benchmark { return trace.ComputeIntensive() }

// BenchmarkByName looks a benchmark up by name ("mcf", "lbm", ...).
func BenchmarkByName(name string) (Benchmark, error) { return trace.ByName(name) }

// BenchmarkNames returns the names of all benchmarks.
func BenchmarkNames() []string { return trace.Names() }

// DefaultOptions returns a 1M-instruction deterministic configuration.
func DefaultOptions() Options { return sim.DefaultOptions() }

// Run simulates one (config, scheme, benchmark) cell.
func Run(cfg CoreConfig, scheme Scheme, benchName string, opt Options) (Stats, error) {
	b, err := trace.ByName(benchName)
	if err != nil {
		return Stats{}, err
	}
	return sim.Run(cfg, scheme, b, opt)
}

// RunMatrix simulates every combination in parallel. Include the OoO
// scheme if you want normalised metrics from the ResultSet. Identical
// cells within the matrix are simulated once; nothing is shared across
// calls — see Engine for cross-call memoization.
func RunMatrix(cores []CoreConfig, schemes []Scheme, benches []Benchmark, opt Options) (*ResultSet, error) {
	return sim.RunMatrix(cores, schemes, benches, opt)
}

// Engine is a concurrency-safe memoizing simulation engine: each unique
// (core config, scheme, benchmark, options) cell is simulated at most
// once per engine, across any number of Run/RunMatrix calls. See
// NewEngine and NewPersistentEngine.
type Engine = sim.Engine

// EngineMetrics snapshots an Engine's hit/miss/sim-time counters.
type EngineMetrics = sim.Metrics

// CellProgress describes one completed cell lookup; see Engine.OnCell.
type CellProgress = sim.CellProgress

// CellKey is the full identity of a simulation cell, hashing the
// complete core configuration, scheme and benchmark definition alongside
// the simulation options.
type CellKey = sim.CellKey

// NewEngine returns a memory-only memoizing engine.
func NewEngine() *Engine { return sim.NewEngine() }

// NewPersistentEngine returns an engine that also persists every
// simulated cell as JSON under dir (versioned by a schema hash, so
// entries from incompatible builds self-invalidate) and warm-starts from
// entries found there.
func NewPersistentEngine(dir string) (*Engine, error) { return sim.NewPersistentEngine(dir) }

// InjectionCampaign configures a statistical fault-injection run: random
// (cycle, structure, entry) soft-error strikes classified by the fate of
// the struck state. See internal/inject for methodology; the empirical
// AVF cross-validates the ACE-analysis ledger.
type InjectionCampaign = inject.Campaign

// InjectionResult is the outcome of an injection campaign.
type InjectionResult = inject.Result

// RunInjection executes a fault-injection campaign for one cell.
func RunInjection(cfg CoreConfig, scheme Scheme, benchName string, camp InjectionCampaign) (InjectionResult, error) {
	b, err := trace.ByName(benchName)
	if err != nil {
		return InjectionResult{}, err
	}
	return inject.Run(cfg, scheme, b, camp)
}

// EnergyModel estimates dynamic+static energy from a run's activity
// counters (per-event picojoule model). See internal/energy.
type EnergyModel = energy.Model

// DefaultEnergyModel returns representative event energies.
func DefaultEnergyModel() EnergyModel { return energy.DefaultModel() }

// ChipWorkload assigns one core of a multicore chip its benchmark and
// scheme.
type ChipWorkload = multicore.Workload

// NewChip builds a multicore system: one core per workload, private
// L1/L2/MSHRs, shared LLC and DRAM (the paper's §VI-E deployment). Cores
// step in lockstep so contention is modelled; the stall fast-forward
// defers provably quiescent cores for wall-clock speed
// without changing results (SetStallFastForward(false) runs the
// cycle-by-cycle reference loop instead).
func NewChip(cfg CoreConfig, loads []ChipWorkload, seed uint64) (*multicore.System, error) {
	return multicore.New(cfg, loads, seed)
}

// ChipMTTFRel returns chip-level MTTF relative to a baseline run of the
// same workloads (failure rates sum across cores).
func ChipMTTFRel(baseline, system []Stats) float64 {
	return multicore.ChipMTTFRel(baseline, system)
}

// ChipThroughputRel returns aggregate chip throughput relative to a
// baseline run of the same workloads.
func ChipThroughputRel(baseline, system []Stats) float64 {
	return multicore.ChipThroughputRel(baseline, system)
}

// Window is one bucket of an AVF-over-time series.
type Window = ace.Window

// WindowAVF converts a timeline window into an AVF given the core's
// vulnerable-bit count and the window width in cycles.
func WindowAVF(w Window, totalBits, windowCycles uint64) float64 {
	return ace.WindowAVF(w, totalBits, windowCycles)
}

// RunTraceFile simulates a recorded trace file (see cmd/tracegen and
// internal/trace/file.go for the format) under the given configuration
// and scheme. The recording loops if shorter than the requested
// instruction count.
func RunTraceFile(cfg CoreConfig, scheme Scheme, path string, opt Options) (Stats, error) {
	fs, err := trace.OpenTraceFile(path)
	if err != nil {
		return Stats{}, err
	}
	c := core.NewFromSource(cfg, scheme, fs.Name(), fs)
	return c.RunWarm(opt.Warmup, opt.Instructions)
}

// RunTimeline simulates one cell with windowed ACE accounting and returns
// the ABC series (one entry per windowCycles-wide window, covering warmup
// and measurement) together with the core's total vulnerable-bit count.
func RunTimeline(cfg CoreConfig, scheme Scheme, benchName string, opt Options, windowCycles uint64) ([]Window, uint64, error) {
	b, err := trace.ByName(benchName)
	if err != nil {
		return nil, 0, err
	}
	c := core.New(cfg, scheme, b, opt.Seed)
	c.EnableTimeline(windowCycles)
	st, err := c.RunWarm(opt.Warmup, opt.Instructions)
	if err != nil {
		return nil, 0, err
	}
	return c.Timeline(), st.TotalBits, nil
}
