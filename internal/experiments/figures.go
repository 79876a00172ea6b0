package experiments

import (
	"fmt"

	"rarsim/internal/ace"
	"rarsim/internal/config"
	"rarsim/internal/mem"
	"rarsim/internal/metrics"
	"rarsim/internal/report"
	"rarsim/internal/trace"
)

// Fig1 regenerates Figure 1: performance (IPC) versus reliability (MTTF)
// for FLUSH, PRE, TR and RAR relative to the baseline OoO core over the
// memory-intensive benchmarks.
func Fig1(c Config) error {
	schemes := []config.Scheme{config.OoO, config.FLUSH, config.PRE, config.TR, config.RAR}
	rs, err := c.matrix(baselineList(), schemes, trace.MemoryIntensive(), c.Opt)
	if err != nil {
		return err
	}
	mem := memNames()
	t := report.NewTable("Figure 1: IPC vs MTTF relative to OoO (memory-intensive)",
		"scheme", "rel. IPC", "rel. MTTF")
	for _, s := range schemes[1:] {
		t.AddRow(s.Name,
			report.X(rs.MeanIPCNorm(base, s.Name, mem)),
			report.X(rs.MeanMTTF(base, s.Name, mem)))
	}
	return c.emit(t, "fig1")
}

// Fig3 regenerates Figure 3: the ABC stacks (ROB/IQ/LQ/SQ/RF/FU) of the
// baseline OoO core for each memory-intensive benchmark, with the average
// stack of the compute-intensive benchmarks for contrast.
func Fig3(c Config) error {
	rs, err := c.matrix(baselineList(), []config.Scheme{config.OoO}, trace.All(), c.Opt)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 3: ABC stacks on the baseline OoO core (Gbit-cycles)",
		"benchmark", "ROB", "IQ", "LQ", "SQ", "RF", "FU", "total")
	row := func(label string, abc [ace.NumStructures]uint64) {
		cells := []string{label}
		var tot uint64
		for _, v := range abc {
			tot += v
		}
		for s := ace.Structure(0); s < ace.NumStructures; s++ {
			cells = append(cells, fmt.Sprintf("%.2f", float64(abc[s])/1e9))
		}
		cells = append(cells, fmt.Sprintf("%.2f", float64(tot)/1e9))
		t.AddRow(cells...)
	}
	// Compute-intensive average first, as in the paper's figure.
	var avg [ace.NumStructures]uint64
	comp := computeNames()
	for _, b := range comp {
		st := rs.MustStats(base, config.OoO.Name, b)
		for i, v := range st.ABC {
			avg[i] += v
		}
	}
	for i := range avg {
		avg[i] /= uint64(len(comp))
	}
	row("compute-avg", avg)
	for _, b := range memNames() {
		row(b, rs.MustStats(base, config.OoO.Name, b).ABC)
	}
	return c.emit(t, "fig3")
}

// Fig4 regenerates Figure 4: total ABC of the four Table I core
// configurations, normalised to Core-1, averaged over the
// memory-intensive benchmarks.
func Fig4(c Config) error {
	cores := config.ScaledCores()
	rs, err := c.matrix(cores, []config.Scheme{config.OoO}, trace.MemoryIntensive(), c.Opt)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 4: ABC vs back-end size, normalised to Core-1 (memory-intensive)",
		"core", "ROB", "norm. ABC")
	for _, core := range cores {
		var ratios []float64
		for _, b := range memNames() {
			ref := rs.MustStats(cores[0].Name, config.OoO.Name, b)
			st := rs.MustStats(core.Name, config.OoO.Name, b)
			ratios = append(ratios, metrics.Ratio(float64(st.TotalABC), float64(ref.TotalABC)))
		}
		t.AddRow(core.Name, fmt.Sprintf("%d", core.ROB), report.X(metrics.ArithMean(ratios)))
	}
	return c.emit(t, "fig4")
}

// Fig5 regenerates Figure 5: how much of the baseline core's ACE bit count
// is exposed while an LLC-miss load blocks the ROB head, and while the ROB
// is additionally full.
func Fig5(c Config) error {
	rs, err := c.matrix(baselineList(), []config.Scheme{config.OoO}, trace.MemoryIntensive(), c.Opt)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 5: ACE attribution on the baseline OoO core",
		"benchmark", "total Gbc", "head-blocked", "full-ROB stall", "head%", "full%", "head-cyc%", "full-cyc%")
	var hbPct, fsPct, hbCyc, fsCyc []float64
	for _, b := range memNames() {
		st := rs.MustStats(base, config.OoO.Name, b)
		hb := 100 * metrics.Ratio(float64(st.HeadBlockedABC), float64(st.TotalABC))
		fs := 100 * metrics.Ratio(float64(st.FullStallABC), float64(st.TotalABC))
		// The cycle-side attribution alongside the bit-side one: what
		// fraction of runtime the head was blocked / the ROB full.
		hc := 100 * metrics.Ratio(float64(st.HeadBlockedCycles), float64(st.Cycles))
		fc := 100 * metrics.Ratio(float64(st.FullStallCycles), float64(st.Cycles))
		hbPct, fsPct = append(hbPct, hb), append(fsPct, fs)
		hbCyc, fsCyc = append(hbCyc, hc), append(fsCyc, fc)
		t.AddRow(b,
			fmt.Sprintf("%.2f", float64(st.TotalABC)/1e9),
			fmt.Sprintf("%.2f", float64(st.HeadBlockedABC)/1e9),
			fmt.Sprintf("%.2f", float64(st.FullStallABC)/1e9),
			fmt.Sprintf("%.1f%%", hb),
			fmt.Sprintf("%.1f%%", fs),
			fmt.Sprintf("%.1f%%", hc),
			fmt.Sprintf("%.1f%%", fc))
	}
	t.AddRow("average", "", "", "",
		fmt.Sprintf("%.1f%%", metrics.ArithMean(hbPct)),
		fmt.Sprintf("%.1f%%", metrics.ArithMean(fsPct)),
		fmt.Sprintf("%.1f%%", metrics.ArithMean(hbCyc)),
		fmt.Sprintf("%.1f%%", metrics.ArithMean(fsCyc)))
	return c.emit(t, "fig5")
}

// fig7and8Schemes is the headline comparison set of §V.
func fig7and8Schemes() []config.Scheme {
	return []config.Scheme{config.OoO, config.FLUSH, config.PRE, config.RARLate, config.RAR}
}

// Fig7 regenerates Figure 7: per-benchmark (a) normalised MTTF and (b)
// normalised ABC for FLUSH, PRE, RAR-LATE and RAR over the full suite.
func Fig7(c Config) error {
	schemes := fig7and8Schemes()
	rs, err := c.matrix(baselineList(), schemes, trace.All(), c.Opt)
	if err != nil {
		return err
	}
	mttf := report.NewTable("Figure 7a: MTTF relative to OoO (higher is better)",
		"benchmark", "FLUSH", "PRE", "RAR-LATE", "RAR")
	abc := report.NewTable("Figure 7b: ABC relative to OoO (lower is better)",
		"benchmark", "FLUSH", "PRE", "RAR-LATE", "RAR")
	addRows := func(benches []string) {
		for _, b := range benches {
			mr := []string{b}
			ar := []string{b}
			for _, s := range schemes[1:] {
				mr = append(mr, report.X(rs.MTTF(base, s.Name, b)))
				ar = append(ar, report.F(rs.ABCNorm(base, s.Name, b)))
			}
			mttf.AddRow(mr...)
			abc.AddRow(ar...)
		}
	}
	addAvg := func(label string, benches []string) {
		mr := []string{label}
		ar := []string{label}
		for _, s := range schemes[1:] {
			mr = append(mr, report.X(rs.MeanMTTF(base, s.Name, benches)))
			ar = append(ar, report.F(rs.MeanABCNorm(base, s.Name, benches)))
		}
		mttf.AddRow(mr...)
		abc.AddRow(ar...)
	}
	addRows(memNames())
	addAvg("mem-avg", memNames())
	addRows(computeNames())
	addAvg("compute-avg", computeNames())
	addAvg("all-avg", append(memNames(), computeNames()...))
	if err := c.emit(mttf, "fig7a"); err != nil {
		return err
	}
	return c.emit(abc, "fig7b")
}

// Fig8 regenerates Figure 8: per-benchmark (a) normalised IPC and (b) MLP
// for the headline schemes over the memory-intensive benchmarks.
func Fig8(c Config) error {
	schemes := fig7and8Schemes()
	rs, err := c.matrix(baselineList(), schemes, trace.MemoryIntensive(), c.Opt)
	if err != nil {
		return err
	}
	ipc := report.NewTable("Figure 8a: IPC relative to OoO",
		"benchmark", "FLUSH", "PRE", "RAR-LATE", "RAR")
	mlp := report.NewTable("Figure 8b: MLP (absolute)",
		"benchmark", "OoO", "FLUSH", "PRE", "RAR-LATE", "RAR")
	for _, b := range memNames() {
		ir := []string{b}
		for _, s := range schemes[1:] {
			ir = append(ir, report.F(rs.IPCNorm(base, s.Name, b)))
		}
		ipc.AddRow(ir...)
		mr := []string{b}
		for _, s := range schemes {
			mr = append(mr, report.F(rs.MLP(base, s.Name, b)))
		}
		mlp.AddRow(mr...)
	}
	ir := []string{"mem-avg"}
	for _, s := range schemes[1:] {
		ir = append(ir, report.F(rs.MeanIPCNorm(base, s.Name, memNames())))
	}
	ipc.AddRow(ir...)
	mr := []string{"mem-avg"}
	for _, s := range schemes {
		mr = append(mr, report.F(rs.MeanMLP(base, s.Name, memNames())))
	}
	mlp.AddRow(mr...)
	if err := c.emit(ipc, "fig8a"); err != nil {
		return err
	}
	return c.emit(mlp, "fig8b")
}

// Fig9 regenerates Figure 9: average MTTF, ABC and IPC of every runahead
// variant (Table IV) plus FLUSH, over the memory-intensive benchmarks. It
// also reports how often each variant triggers runahead relative to PRE
// (§V-B: RAR triggers 2.3x more often).
func Fig9(c Config) error {
	schemes := append([]config.Scheme{config.OoO}, config.RunaheadVariants()...)
	rs, err := c.matrix(baselineList(), schemes, trace.MemoryIntensive(), c.Opt)
	if err != nil {
		return err
	}
	names := memNames()
	triggers := func(scheme string) float64 {
		var total uint64
		for _, b := range names {
			st := rs.MustStats(base, scheme, b)
			total += st.RunaheadEntries + st.Flushes
		}
		return float64(total)
	}
	preTrig := triggers(config.PRE.Name)
	// Per-variant runahead behaviour: fraction of cycles spent in
	// runahead mode, uops executed per trigger, and the share of
	// runahead uops filtered or INV-dropped — the lean-vs-full execution
	// trade-off of Table IV, visible directly.
	behaviour := func(scheme string) (raCyc, perTrig, dropped float64) {
		var cyc, ra, exec, drop, trig uint64
		for _, b := range names {
			st := rs.MustStats(base, scheme, b)
			cyc += st.Cycles
			ra += st.RunaheadCycles
			exec += st.RunaheadExecuted
			drop += st.RunaheadDropped
			trig += st.RunaheadEntries + st.Flushes
		}
		raCyc = 100 * metrics.Ratio(float64(ra), float64(cyc))
		perTrig = metrics.Ratio(float64(exec), float64(trig))
		dropped = 100 * metrics.Ratio(float64(drop), float64(exec+drop))
		return raCyc, perTrig, dropped
	}
	t := report.NewTable("Figure 9: runahead design space, averages over memory-intensive benchmarks",
		"scheme", "MTTF", "ABC", "IPC", "triggers/PRE", "RA-cyc%", "uops/trigger", "dropped%")
	for _, s := range schemes[1:] {
		ratio := "-"
		if preTrig > 0 {
			ratio = fmt.Sprintf("%.1fx", triggers(s.Name)/preTrig)
		}
		raCyc, perTrig, dropped := behaviour(s.Name)
		t.AddRow(s.Name,
			report.X(rs.MeanMTTF(base, s.Name, names)),
			report.F(rs.MeanABCNorm(base, s.Name, names)),
			report.F(rs.MeanIPCNorm(base, s.Name, names)),
			ratio,
			fmt.Sprintf("%.1f%%", raCyc),
			fmt.Sprintf("%.0f", perTrig),
			fmt.Sprintf("%.1f%%", dropped))
	}
	return c.emit(t, "fig9")
}

// Fig10 regenerates Figure 10: ABC as a function of back-end size (Table I
// cores) for the OoO baseline and RAR, normalised to Core-1 OoO.
func Fig10(c Config) error {
	cores := config.ScaledCores()
	schemes := []config.Scheme{config.OoO, config.RAR}
	rs, err := c.matrix(cores, schemes, trace.MemoryIntensive(), c.Opt)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 10: ABC vs back-end size, normalised to Core-1 OoO",
		"core", "ROB", "OoO", "RAR")
	for _, core := range cores {
		row := []string{core.Name, fmt.Sprintf("%d", core.ROB)}
		for _, s := range schemes {
			var ratios []float64
			for _, b := range memNames() {
				ref := rs.MustStats(cores[0].Name, config.OoO.Name, b)
				st := rs.MustStats(core.Name, s.Name, b)
				ratios = append(ratios, metrics.Ratio(float64(st.TotalABC), float64(ref.TotalABC)))
			}
			row = append(row, report.F(metrics.ArithMean(ratios)))
		}
		t.AddRow(row...)
	}
	return c.emit(t, "fig10")
}

// Fig11 regenerates Figure 11: MTTF, ABC and IPC of OoO, PRE and RAR under
// aggressive stride prefetching at the LLC ("+L3") and at all levels
// ("+ALL"), all normalised to the no-prefetch OoO baseline.
func Fig11(c Config) error {
	cores := []config.Core{
		config.Baseline(),
		config.Baseline().WithPrefetch(mem.PrefetchL3),
		config.Baseline().WithPrefetch(mem.PrefetchAll),
	}
	schemes := []config.Scheme{config.OoO, config.PRE, config.RAR}
	rs, err := c.matrix(cores, schemes, trace.MemoryIntensive(), c.Opt)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 11: hardware prefetching, normalised to no-prefetch OoO (memory-intensive)",
		"config", "scheme", "MTTF", "ABC", "IPC", "pf/kinst")
	for _, core := range cores {
		for _, s := range schemes {
			var mttfs, abcs, ipcs, pfs []float64
			for _, b := range memNames() {
				ref := rs.MustStats(cores[0].Name, config.OoO.Name, b)
				st := rs.MustStats(core.Name, s.Name, b)
				mttfs = append(mttfs, ace.MTTFRel(ref.TotalABC, ref.Cycles, st.TotalABC, st.Cycles))
				abcs = append(abcs, metrics.Ratio(float64(st.TotalABC), float64(ref.TotalABC)))
				ipcs = append(ipcs, metrics.Ratio(st.IPC(), ref.IPC()))
				pfs = append(pfs, 1000*metrics.Ratio(float64(st.Mem.PrefetchIssued), float64(st.Committed)))
			}
			t.AddRow(core.Name, s.Name,
				report.X(metrics.GeoMean(mttfs)),
				report.F(metrics.ArithMean(abcs)),
				report.F(metrics.HarmMean(ipcs)),
				fmt.Sprintf("%.1f", metrics.ArithMean(pfs)))
		}
	}
	return c.emit(t, "fig11")
}
