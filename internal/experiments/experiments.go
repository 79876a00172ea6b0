// Package experiments regenerates every table and figure of the paper's
// evaluation (§II and §V). Each FigN function runs the experiment's
// (core × scheme × benchmark) matrix and renders the same rows/series the
// paper reports, normalised the same way (everything relative to the
// baseline OoO core; hmean IPC, geomean MTTF, amean ABC/MLP).
//
// See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
// paper-versus-measured results.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rarsim/internal/config"
	"rarsim/internal/report"
	"rarsim/internal/sim"
	"rarsim/internal/trace"
)

// Config controls an experiment run.
type Config struct {
	// Opt is the per-cell simulation configuration.
	Opt sim.Options
	// Out receives the rendered tables.
	Out io.Writer
	// CSVDir, when non-empty, additionally writes each table as CSV.
	CSVDir string
	// Engine, when non-nil, memoizes simulation cells: figures sharing a
	// cell (same core config, scheme, benchmark and options) simulate it
	// once and reuse the result. All and Ablations install a shared
	// memory engine automatically when none is provided; pass a
	// sim.NewPersistentEngine to warm-start from disk across runs.
	Engine *sim.Engine
}

func (c Config) emit(t *report.Table, csvName string) error {
	t.Write(c.Out)
	if c.CSVDir == "" {
		return nil
	}
	if err := os.MkdirAll(c.CSVDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(c.CSVDir, csvName+".csv"))
	if err != nil {
		return err
	}
	t.WriteCSV(f)
	// The close error is the only signal that the CSV never fully
	// reached disk (ENOSPC, quota); a silently truncated table is
	// exactly the data-integrity class this repo lints against.
	return f.Close()
}

// All runs every experiment in paper order, sharing one memoizing
// engine: a cell simulated for an early figure is a cache hit for every
// later figure that reuses it. Fig2 and Fig6 are intentionally absent —
// in the paper they are conceptual diagrams (the ACE vulnerability
// windows and the RAR mechanism overview), not measured results.
func All(c Config) error {
	if c.Engine == nil {
		c.Engine = sim.NewEngine()
	}
	steps := []struct {
		name string
		fn   func(Config) error
	}{
		{"fig1", Fig1}, {"fig3", Fig3}, {"fig4", Fig4}, {"fig5", Fig5},
		{"fig7", Fig7}, {"fig8", Fig8}, {"fig9", Fig9}, {"fig10", Fig10},
		{"fig11", Fig11},
	}
	for _, s := range steps {
		if err := s.fn(c); err != nil {
			return fmt.Errorf("experiments: %s: %w", s.name, err)
		}
	}
	return nil
}

// ByName runs one experiment ("1", "3", ... "11", or "all").
func ByName(name string, c Config) error {
	switch name {
	case "all", "":
		return All(c)
	case "1":
		return Fig1(c)
	case "3":
		return Fig3(c)
	case "4":
		return Fig4(c)
	case "5":
		return Fig5(c)
	case "7":
		return Fig7(c)
	case "8":
		return Fig8(c)
	case "9":
		return Fig9(c)
	case "10":
		return Fig10(c)
	case "11":
		return Fig11(c)
	case "ablations":
		return Ablations(c)
	case "timer":
		return AblationTimer(c)
	case "mshr":
		return AblationMSHR(c)
	case "scaling":
		return AblationScaledRAR(c)
	case "seeds":
		return AblationSeeds(c)
	case "inject":
		return AblationInjection(c)
	case "multicore":
		return AblationMulticore(c)
	case "energy":
		return AblationEnergy(c)
	default:
		return fmt.Errorf("experiments: unknown figure %q (use 1,3,4,5,7,8,9,10,11, all, or an ablation: ablations, timer, mshr, scaling, seeds, inject, multicore, energy)", name)
	}
}

// matrix runs one experiment matrix through the shared engine when the
// Config carries one, falling back to an unshared run otherwise. opt is
// passed explicitly because some ablations vary it per matrix.
func (c Config) matrix(cores []config.Core, schemes []config.Scheme, benches []trace.Benchmark, opt sim.Options) (*sim.ResultSet, error) {
	if c.Engine != nil {
		return c.Engine.RunMatrix(cores, schemes, benches, opt)
	}
	return sim.RunMatrix(cores, schemes, benches, opt)
}

// memNames returns the memory-intensive benchmark names.
func memNames() []string { return sim.BenchNames(trace.MemoryIntensive()) }

// computeNames returns the compute-intensive benchmark names.
func computeNames() []string { return sim.BenchNames(trace.ComputeIntensive()) }

// baselineList wraps the baseline core for matrix calls.
func baselineList() []config.Core { return []config.Core{config.Baseline()} }

const base = "baseline"
