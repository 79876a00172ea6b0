// Package config holds the simulated machine configurations: the paper's
// baseline out-of-order core (Table II), the four scaling configurations
// (Table I), and the runahead scheme descriptors (the Table IV feature
// matrix).
package config

import (
	"fmt"
	"strings"

	"rarsim/internal/mem"
)

// FUPool describes one class of functional units.
type FUPool struct {
	// Count is the number of units in the pool.
	Count int
	// Latency is the execution latency in cycles.
	Latency uint64
	// Pipelined units accept a new operation every cycle; unpipelined
	// units are busy for the full latency.
	Pipelined bool
}

// Core is a complete core configuration.
type Core struct {
	// Name identifies the configuration ("baseline", "core-1", ...).
	Name string

	// FrequencyGHz is the core clock (Table II: 2.66 GHz). The simulator
	// is cycle-based; the frequency only matters when converting cycle
	// counts to wall-clock time for absolute FIT/MTTF estimates.
	FrequencyGHz float64

	// Width is the pipeline width: fetch, decode/rename/dispatch, issue
	// and commit bandwidth per cycle.
	Width int
	// FrontEndDepth is the number of front-end stages (fetch to
	// dispatch); it sets the branch misprediction / flush refill penalty.
	FrontEndDepth int

	// Back-end structure sizes.
	ROB, IQ, LQ, SQ int
	IntRegs, FpRegs int

	// Runahead hardware (PRE/RAR).
	SST  int // stalling slice table entries
	PRDQ int // precise register deallocation queue entries

	// Functional units (Table II).
	IntAdd, IntMult, IntDiv FUPool
	FpAdd, FpMult, FpDiv    FUPool

	// RunaheadTimer is the ROB-head countdown used by the early-start
	// trigger and by FLUSH's long-latency-load detection: a load that has
	// blocked the head for this many cycles is assumed to be an LLC miss
	// (§III-D: L1+L2+L3 tag lookups are 1+3+10 cycles, so >14 cycles at
	// the head implies an LLC miss).
	RunaheadTimer uint64

	// PostCommitStoreBuffer is the number of committed stores that may be
	// buffered while draining to the L1D.
	PostCommitStoreBuffer int

	// Mem is the cache/DRAM configuration.
	Mem mem.Config
}

// Baseline returns the Table II core: 4-wide, 8-stage front-end, 192-entry
// ROB, 92 IQ, 64 LQ, 64 SQ, 168+168 registers, TAGE-SC-L, no prefetcher.
func Baseline() Core {
	return Core{
		Name:          "baseline",
		FrequencyGHz:  2.66,
		Width:         4,
		FrontEndDepth: 8,
		ROB:           192,
		IQ:            92,
		LQ:            64,
		SQ:            64,
		IntRegs:       168,
		FpRegs:        168,
		SST:           128,
		PRDQ:          192,
		IntAdd:        FUPool{Count: 3, Latency: 1, Pipelined: true},
		IntMult:       FUPool{Count: 1, Latency: 3, Pipelined: true},
		IntDiv:        FUPool{Count: 1, Latency: 18, Pipelined: false},
		FpAdd:         FUPool{Count: 1, Latency: 3, Pipelined: true},
		FpMult:        FUPool{Count: 1, Latency: 5, Pipelined: true},
		FpDiv:         FUPool{Count: 1, Latency: 6, Pipelined: false},
		RunaheadTimer: 15,

		PostCommitStoreBuffer: 8,
		Mem:                   mem.DefaultConfig(),
	}
}

// ScaledCores returns the four configurations of Table I, modelled on the
// Nehalem → Haswell → Skylake → Ice Lake back-end growth. Core-2 matches
// the baseline's back-end sizes.
func ScaledCores() []Core {
	type row struct {
		name                 string
		rob, iq, lq, sq, rgs int
	}
	rows := []row{
		{"core-1", 128, 36, 48, 32, 120},
		{"core-2", 192, 92, 64, 64, 168},
		{"core-3", 224, 97, 64, 60, 180},
		{"core-4", 352, 128, 128, 72, 256},
	}
	out := make([]Core, 0, len(rows))
	for _, r := range rows {
		c := Baseline()
		c.Name = r.name
		c.ROB, c.IQ, c.LQ, c.SQ = r.rob, r.iq, r.lq, r.sq
		c.IntRegs, c.FpRegs = r.rgs, r.rgs
		c.PRDQ = r.rob
		out = append(out, c)
	}
	return out
}

// CoreByName looks a core configuration up by name: "baseline" or one of
// the Table I names of ScaledCores. An unknown name's error lists the
// valid ones.
func CoreByName(name string) (Core, error) {
	if name == "baseline" {
		return Baseline(), nil
	}
	for _, c := range ScaledCores() {
		if c.Name == name {
			return c, nil
		}
	}
	return Core{}, fmt.Errorf("unknown core %q (valid: %s)", name, strings.Join(CoreNames(), ", "))
}

// CoreNames returns the names CoreByName accepts, baseline first.
func CoreNames() []string {
	out := []string{"baseline"}
	for _, c := range ScaledCores() {
		out = append(out, c.Name)
	}
	return out
}

// WithPrefetch returns a copy of c with the stride prefetcher enabled in
// the given mode (Figure 11).
func (c Core) WithPrefetch(mode mem.PrefetchMode) Core {
	c.Mem.Prefetch = mode
	if c.Mem.PrefetchDegree == 0 {
		c.Mem.PrefetchDegree = 4
	}
	c.Name = c.Name + mode.String()
	return c
}

// IntFUCount returns the number of integer functional units, for the AVF
// bit-count denominator.
func (c Core) IntFUCount() int { return c.IntAdd.Count + c.IntMult.Count + c.IntDiv.Count }

// FpFUCount returns the number of FP functional units.
func (c Core) FpFUCount() int { return c.FpAdd.Count + c.FpMult.Count + c.FpDiv.Count }
