// Package energy estimates the dynamic energy of a simulation run from its
// activity counters — a McPAT-flavoured event-energy model, not a circuit
// simulation. The paper argues that redundancy-based reliability schemes
// cost substantial energy while runahead's overhead is modest (§I, §VI-B);
// this model quantifies that trade-off for every evaluated scheme: the
// extra fetch/dispatch/issue activity of runahead and the refetch energy
// of the flush-based schemes, against the static energy saved by finishing
// sooner.
package energy

import "rarsim/internal/core"

// Model holds per-event dynamic energies (picojoules) and a static power
// term (picojoules per cycle). The defaults are representative 22nm-class
// values in the spirit of McPAT-derived numbers used by runahead papers;
// the *relative* scheme comparison is insensitive to their exact
// magnitudes.
type Model struct {
	FetchPJ    float64 // fetch + decode one instruction
	DispatchPJ float64 // rename + ROB/IQ allocation
	IssuePJ    float64 // wakeup/select + register read + execute
	L1PJ       float64 // L1 access
	LLCMissPJ  float64 // off-chip access (DRAM read or write)
	StaticPJ   float64 // leakage + clock per cycle
}

// DefaultModel returns the representative event energies.
func DefaultModel() Model {
	return Model{
		FetchPJ:    12,
		DispatchPJ: 18,
		IssuePJ:    25,
		L1PJ:       10,
		LLCMissPJ:  2000,
		StaticPJ:   45,
	}
}

// Breakdown is the estimated energy of a run, in microjoules.
type Breakdown struct {
	FrontEnd float64 // fetch + dispatch activity
	Execute  float64 // issue/execute activity
	Memory   float64 // cache and DRAM traffic
	Static   float64 // leakage over the run's cycles
}

// Total returns the run's total energy in microjoules.
func (b Breakdown) Total() float64 {
	return b.FrontEnd + b.Execute + b.Memory + b.Static
}

// Estimate computes the energy breakdown of a run's statistics.
func (m Model) Estimate(st core.Stats) Breakdown {
	const toMicro = 1e-6
	var b Breakdown
	b.FrontEnd = (float64(st.TotalFetched)*m.FetchPJ +
		float64(st.TotalDispatched)*m.DispatchPJ) * toMicro
	b.Execute = float64(st.TotalIssued) * m.IssuePJ * toMicro
	b.Memory = (float64(st.Mem.DemandLoads)*m.L1PJ +
		float64(st.Mem.DRAMReads+st.Mem.DRAMWrites)*m.LLCMissPJ) * toMicro
	b.Static = float64(st.Cycles) * m.StaticPJ * toMicro
	return b
}

// EPI returns the estimated energy per committed instruction in
// picojoules.
func (m Model) EPI(st core.Stats) float64 {
	if st.Committed == 0 {
		return 0
	}
	return m.Estimate(st).Total() * 1e6 / float64(st.Committed)
}

// Overhead returns the scheme's total-energy ratio against a baseline run
// of the same work (>1 = costs energy, <1 = saves energy).
func (m Model) Overhead(baseline, scheme core.Stats) float64 {
	base := m.Estimate(baseline).Total()
	if base == 0 {
		return 0
	}
	return m.Estimate(scheme).Total() / base
}
