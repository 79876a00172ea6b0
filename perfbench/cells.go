package main

import (
	"fmt"
	"runtime"
	"time"

	"rarsim/internal/ace"
	"rarsim/internal/branch"
	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/isa"
	"rarsim/internal/mem"
	"rarsim/internal/metrics"
	"rarsim/internal/trace"
)

// cellsSpec is a single-core workload: every scheme × benchmark cell, each
// simulated from a fresh core for warmup+measured committed instructions,
// the way cmd/rarsim and cmd/experiments run a cell.
type cellsSpec struct {
	name             string
	schemes          []config.Scheme
	benches          []string
	warmup, measured uint64
}

// memSpec is the paper's headline class: runahead, flush/refetch, the
// memory hierarchy, head-blocked ACE accounting and the stall
// fast-forward do most of their work here.
var memSpec = cellsSpec{
	name:     "mem",
	schemes:  []config.Scheme{config.OoO, config.FLUSH, config.PRE, config.RAR},
	benches:  []string{"mcf", "libquantum", "soplex", "lbm"},
	warmup:   20_000,
	measured: 100_000,
}

// computeSpec is the bypass workload: runahead and the fast-forward are
// nearly idle, so the front end, issue, synthesis and the branch
// predictor dominate. Its cells are twice as long because they run about
// twice as fast.
var computeSpec = cellsSpec{
	name:     "compute",
	schemes:  []config.Scheme{config.OoO, config.RAR},
	benches:  []string{"x264", "exchange2", "deepsjeng", "imagick"},
	warmup:   40_000,
	measured: 200_000,
}

// cell is one (scheme, benchmark) pair of a cells workload.
type cell struct {
	id     string
	scheme config.Scheme
	bench  trace.Benchmark
}

func (s cellsSpec) cells() ([]cell, error) {
	var out []cell
	for _, sch := range s.schemes {
		for _, name := range s.benches {
			b, err := trace.ByName(name)
			if err != nil {
				return nil, err
			}
			out = append(out, cell{id: sch.Name + "/" + name, scheme: sch, bench: b})
		}
	}
	return out, nil
}

// cellRun is one simulated cell with its host timings: set-up runs from
// setupStart to runStart, RunWarm from runStart to runEnd. cpu is the
// process CPU time of RunWarm, setupCPU that of the set-up.
type cellRun struct {
	core                         *core.Core
	stats                        core.Stats
	setupStart, runStart, runEnd time.Time
	setupCPU, cpu                time.Duration
}

func (r cellRun) setup() time.Duration { return r.runStart.Sub(r.setupStart) }

// simulateCell builds a core over the source newSrc makes and runs it.
// The heap is collected first so one cell's garbage is not charged to
// the next.
func simulateCell(cfg config.Core, c cell, newSrc func() trace.Source, warmup, measured uint64, ff bool) (cellRun, error) {
	runtime.GC()
	var r cellRun
	cpu0 := cpuTime()
	r.setupStart = now()
	r.core = core.NewFromSource(cfg, c.scheme, c.bench.Name, newSrc())
	r.core.SetStallFastForward(ff)
	r.runStart = now()
	cpu1 := cpuTime()
	st, err := r.core.RunWarm(warmup, measured)
	r.cpu = cpuTime() - cpu1
	r.runEnd = now()
	r.setupCPU = cpu1 - cpu0
	if err != nil {
		return r, fmt.Errorf("%s: %w", c.id, err)
	}
	r.stats = st
	return r, nil
}

func generator(b trace.Benchmark, seed uint64) func() trace.Source {
	return func() trace.Source { return trace.New(b, seed) }
}

// checkCell runs the per-cell invariants: the exact commit count, a
// digest equal to the cell's first run in this process and, at the
// default seed, to the recorded one.
func (s cellsSpec) checkCell(o options, c cell, r cellRun, first map[string]string) []string {
	var p []string
	if r.stats.Committed != s.measured {
		p = append(p, fmt.Sprintf("%s %s: measured %d committed instructions, want %d", s.name, c.id, r.stats.Committed, s.measured))
	}
	if got := r.core.Committed(); got != s.warmup+s.measured {
		p = append(p, fmt.Sprintf("%s %s: committed %d instructions in all, want %d", s.name, c.id, got, s.warmup+s.measured))
	}
	d := digest(r.stats)
	if f, ok := first[c.id]; ok {
		if f != d {
			p = append(p, fmt.Sprintf("%s %s: Stats digest %s differs from this run's first %s", s.name, c.id, d, f))
		}
		return p
	}
	first[c.id] = d
	return append(p, o.digests.check(o, s.name, c.id, d)...)
}

// runCells drives a cells workload: whole rounds over every cell until
// the measuring time is spent, at least one. Each end-to-end metric is
// built from per-cell medians over the rounds. A cell runs on one thread,
// so its cost is timed in process CPU time, which the host's scheduling
// of other work does not inflate; only the short set-up is timed on the
// wall clock.
func runCells(spec cellsSpec, o options) (*result, error) {
	cfg := config.Baseline()
	cells, err := spec.cells()
	if err != nil {
		return nil, err
	}
	res := newResult()
	var tr *cellsTracer
	if o.traced {
		tr = newCellsTracer(spec)
	}
	first := map[string]string{}
	cpu, cellCPU, setup := samples{}, samples{}, samples{}
	ids := make([]string, len(cells))
	for i, c := range cells {
		ids[i] = c.id
	}
	start := now()
	rounds := 0
	for ; o.more(rounds, start); rounds++ {
		// CommitHash covers the committed stream, which no scheme may
		// change: every scheme of one benchmark must agree.
		hashes := map[string]uint64{}
		for _, c := range cells {
			r, err := simulateCell(cfg, c, generator(c.bench, o.seed), spec.warmup, spec.measured, true)
			if err != nil {
				res.op([]string{err.Error()})
				continue
			}
			problems := spec.checkCell(o, c, r, first)
			if h, ok := hashes[c.bench.Name]; !ok {
				hashes[c.bench.Name] = r.stats.CommitHash
			} else if h != r.stats.CommitHash {
				problems = append(problems, fmt.Sprintf("%s %s: CommitHash %x differs from %s's %x",
					spec.name, c.id, r.stats.CommitHash, spec.schemes[0].Name, h))
			}
			if tr != nil {
				problems = append(problems, tr.cell(o, cfg, c, r, rounds)...)
			}
			res.op(problems)
			cpu.add(c.id, r.cpu.Seconds())
			cellCPU.add(c.id, (r.setupCPU + r.cpu).Seconds())
			setup.add(c.id, r.setup().Seconds())
		}
	}
	res.note("%d cells (%d+%d instructions each) simulated in %d rounds",
		len(cells), spec.warmup, spec.measured, rounds)
	if tr != nil {
		res.values["core.setup_s"] = setup.sumOfMedians(ids)
		return res, tr.finish(res, o, rounds)
	}
	insts := float64(uint64(len(cells)) * (spec.warmup + spec.measured))
	res.values["sim_insts_per_s"] = metrics.Ratio(insts, cpu.sumOfMedians(ids))
	res.values["latency_p50_ms"] = 1e3 * median(cellCPU.medians(ids))
	res.values["setup_s"] = setup.sumOfMedians(ids)
	res.values["max_rss_mb"] = maxRSSMB()
	return res, nil
}

// timedSource wraps a generator, keeping its BlockSource face so the
// core still fills its stream buffer in blocks, and sums the calls,
// instructions and host time spent synthesising.
type timedSource struct {
	gen          trace.BlockSource
	calls, insts uint64
	dur          time.Duration
}

func (s *timedSource) Next(in *isa.Inst) {
	t := now()
	s.gen.Next(in)
	s.dur += since(t)
	s.calls++
	s.insts++
}

func (s *timedSource) WrongPath(in *isa.Inst, pc uint64) {
	t := now()
	s.gen.WrongPath(in, pc)
	s.dur += since(t)
	s.calls++
	s.insts++
}

func (s *timedSource) NextBlock(dst []isa.Inst) {
	t := now()
	s.gen.NextBlock(dst)
	s.dur += since(t)
	s.calls++
	s.insts += uint64(len(dst))
}

func (s *timedSource) WrongPathBlock(dst []isa.Inst, pc uint64) {
	t := now()
	s.gen.WrongPathBlock(dst, pc)
	s.dur += since(t)
	s.calls++
	s.insts += uint64(len(dst))
}

// coreSums adds up whole-run counters (warmup included) over cores.
type coreSums struct {
	cycles, skipped                    uint64 // core clock and the cycles the fast-forward skipped
	statCycles, runahead               uint64
	fetched, committed                 uint64
	raExec, raDrop                     uint64
	predictions, mispredicts, branches uint64
	l1dAcc, l1dMiss, llcAcc, llcMiss   uint64
	demandMiss, missCycles, busyCycles uint64
	mshrFull, dramReads, dramTx        uint64
	dramRowHits                        float64
}

func (s *coreSums) add(co *core.Core) {
	st := co.Snapshot()
	h := co.Hierarchy()
	d := h.DRAM()
	tx := d.Reads() + d.Writes()
	s.cycles += co.CycleCount()
	s.skipped += co.FFSkippedCycles()
	s.statCycles += st.Cycles
	s.runahead += st.RunaheadCycles
	s.fetched += st.TotalFetched
	s.committed += st.Committed
	s.raExec += st.RunaheadExecuted
	s.raDrop += st.RunaheadDropped
	s.predictions += co.Predictor().Predictions()
	s.mispredicts += st.Mispredicts
	s.branches += st.CommittedBranches
	s.l1dAcc += h.L1D.Accesses()
	s.l1dMiss += h.L1D.Misses()
	s.llcAcc += h.L3.Accesses()
	s.llcMiss += h.L3.Misses()
	s.demandMiss += st.Mem.DemandLLCMisses
	s.missCycles += st.Mem.LLCMissCycles
	s.busyCycles += st.Mem.LLCBusyCycles
	s.mshrFull += h.MSHRs().FullStalls()
	s.dramReads += d.Reads()
	s.dramTx += tx
	s.dramRowHits += d.RowHitRate() * float64(tx)
}

// cellsTracer runs a traced cells workload's extra work per cell and
// turns spans and counters into the per-layer metrics. All of it — the
// traced re-run, the fast-forward-off re-run and the memory and branch
// replays — happens only in a traced run. Counters and times add up over
// the run's rounds; the metrics report them per round, so they measure
// one pass over the cells, not the measuring time.
type cellsTracer struct {
	spec     cellsSpec
	rec      *recorder
	all      coreSums
	byScheme map[string]*coreSums
	// measured holds each cell's first measured Stats, for model.* and
	// ace.*.
	measured           map[string]core.Stats
	baseCPU, tracedCPU time.Duration
	ffSaved            time.Duration
	replayBuf          []isa.Inst
}

func newCellsTracer(spec cellsSpec) *cellsTracer {
	return &cellsTracer{
		spec:     spec,
		rec:      newRecorder(),
		byScheme: map[string]*coreSums{},
		measured: map[string]core.Stats{},
	}
}

// cell traces one cell whose untraced run is base: a re-run through a
// timed source, a re-run with the fast-forward off, and (in the first
// round) the memory and branch replays. Both re-runs must reproduce base's
// Stats exactly.
func (t *cellsTracer) cell(o options, cfg config.Core, c cell, base cellRun, round int) []string {
	id := fmt.Sprintf("%s/%s#%d", t.spec.name, c.id, round)
	root := t.rec.begin("cell", id, -1)
	defer t.rec.end(root)
	var p []string
	want := digest(base.stats)

	src := &timedSource{}
	traced, err := simulateCell(cfg, c, func() trace.Source {
		src.gen = trace.New(c.bench, o.seed)
		return src
	}, t.spec.warmup, t.spec.measured, true)
	if err != nil {
		return []string{err.Error()}
	}
	t.rec.interval("core.setup", id, root, traced.setupStart, traced.runStart)
	run := t.rec.interval("core.RunWarm", id, root, traced.runStart, traced.runEnd)
	t.rec.aggregate(run, aggregate{Name: "trace.synth", Calls: src.calls, Items: src.insts, Dur: src.dur})
	if d := digest(traced.stats); d != want {
		p = append(p, fmt.Sprintf("%s: traced run's Stats digest %s differs from the untraced %s", id, d, want))
	}
	t.baseCPU += base.cpu
	t.tracedCPU += traced.cpu
	t.all.add(traced.core)
	sums := t.byScheme[c.scheme.Name]
	if sums == nil {
		sums = &coreSums{}
		t.byScheme[c.scheme.Name] = sums
	}
	sums.add(traced.core)
	if round == 0 {
		t.measured[c.id] = base.stats
	}

	off, err := simulateCell(cfg, c, generator(c.bench, o.seed), t.spec.warmup, t.spec.measured, false)
	if err != nil {
		return append(p, err.Error())
	}
	t.rec.interval("core.RunWarm.ff-off", id, root, off.runStart, off.runEnd)
	t.ffSaved += off.cpu - base.cpu
	if d := digest(off.stats); d != want {
		p = append(p, fmt.Sprintf("%s: fast-forward-off Stats digest %s differs from %s", id, d, want))
	}

	if round == 0 {
		t.replay(cfg, c, o.seed, id, root)
	}
	return p
}

// replay feeds the cell's committed instruction stream, regenerated from
// the same seed, through a fresh memory hierarchy (every load and store,
// with the functional fast-forward's MSHR back-off) and a fresh branch
// predictor (every branch predicted, shifted and trained), timing each
// loop as one aggregate.
func (t *cellsTracer) replay(cfg config.Core, c cell, seed uint64, id string, root int) {
	n := int(t.spec.warmup + t.spec.measured)
	if cap(t.replayBuf) < n {
		t.replayBuf = make([]isa.Inst, n)
	}
	buf := t.replayBuf[:n]
	trace.New(c.bench, seed).NextBlock(buf)
	sp := t.rec.begin("replay", id, root)
	defer t.rec.end(sp)

	h := mem.NewHierarchy(cfg.Mem)
	var cycle, accesses uint64
	start := now()
	for i := range buf {
		in := &buf[i]
		cycle++
		if !in.IsMem() {
			continue
		}
		kind := mem.KindLoad
		if in.IsStore() {
			kind = mem.KindStore
		}
		if h.Access(in.Addr, cycle, kind).MSHRStall {
			cycle += 50
		}
		accesses++
	}
	t.rec.aggregate(sp, aggregate{Name: "mem.replay", Calls: accesses, Items: accesses, Dur: since(start)})

	bp := branch.NewPredictor()
	var predictions uint64
	start = now()
	for i := range buf {
		in := &buf[i]
		if !in.IsBranch() {
			continue
		}
		pred, info := bp.PredictNoShift(in.PC)
		bp.ShiftHistory(pred, in.PC)
		bp.Update(in.PC, in.Taken, info)
		predictions++
	}
	t.rec.aggregate(sp, aggregate{Name: "branch.replay", Calls: predictions, Items: predictions, Dur: since(start)})
}

// finish computes the per-layer metrics of a run of the given number of
// rounds and writes the spans. Totals are divided by rounds; ratios and
// per-item costs need no division.
func (t *cellsTracer) finish(res *result, o options, rounds int) error {
	spans := t.rec.snapshot()
	total, self := spanTotals(spans)
	synth := aggTotals(spans, "trace.synth")
	memRep := aggTotals(spans, "mem.replay")
	bpRep := aggTotals(spans, "branch.replay")
	coreSelf := self["core.RunWarm"]
	s := &t.all
	ticked := s.cycles - s.skipped
	v := res.values
	n := float64(rounds)

	v["trace.insts"] = float64(synth.Items) / n
	v["trace.calls"] = float64(synth.Calls) / n
	v["trace.self_s"] = synth.Dur.Seconds() / n
	v["trace.ns_per_inst"] = nsPer(synth.Dur, synth.Items)

	v["core.self_s"] = coreSelf.Seconds() / n
	v["core.cycles"] = float64(s.cycles) / n
	v["core.skipped_cycles"] = float64(s.skipped) / n
	v["core.skip_share"] = metrics.Ratio(float64(s.skipped), float64(s.cycles))
	if ooo := t.byScheme[config.OoO.Name]; ooo != nil {
		v["core.skip_share_ooo"] = metrics.Ratio(float64(ooo.skipped), float64(ooo.cycles))
	}
	v["core.ns_per_ticked_cycle"] = nsPer(coreSelf, ticked)
	v["core.fetched_uops"] = float64(s.fetched) / n
	v["core.useful_fetch_ratio"] = metrics.Ratio(float64(s.committed), float64(s.fetched))
	v["core.ns_per_fetched_uop"] = nsPer(coreSelf, s.fetched)
	v["core.runahead_share"] = metrics.Ratio(float64(s.runahead), float64(s.statCycles))
	if rar := t.byScheme[config.RAR.Name]; rar != nil {
		v["core.runahead_share_rar"] = metrics.Ratio(float64(rar.runahead), float64(rar.statCycles))
	}
	v["core.runahead_useful_ratio"] = metrics.Ratio(float64(s.raExec), float64(s.raExec+s.raDrop))
	v["core.ff_saved_s"] = t.ffSaved.Seconds() / n

	// The replays run in the first round only.
	nsPredict := nsPer(bpRep.Dur, bpRep.Items)
	v["branch.predictions"] = float64(s.predictions) / n
	v["branch.mispredict_rate"] = metrics.Ratio(float64(s.mispredicts), float64(s.branches))
	v["branch.ns_per_predict"] = nsPredict
	v["branch.est_s"] = v["branch.predictions"] * nsPredict / 1e9

	nsAccess := nsPer(memRep.Dur, memRep.Items)
	v["mem.l1d_accesses"] = float64(s.l1dAcc) / n
	v["mem.l1d_miss_rate"] = metrics.Ratio(float64(s.l1dMiss), float64(s.l1dAcc))
	v["mem.llc_miss_rate"] = metrics.Ratio(float64(s.llcMiss), float64(s.llcAcc))
	v["mem.mpki"] = 1000 * metrics.Ratio(float64(s.demandMiss), float64(s.committed))
	v["mem.mlp"] = metrics.Ratio(float64(s.missCycles), float64(s.busyCycles))
	v["mem.mshr_full_stalls"] = float64(s.mshrFull) / n
	v["mem.dram_reads"] = float64(s.dramReads) / n
	v["mem.dram_row_hit_rate"] = metrics.Ratio(s.dramRowHits, float64(s.dramTx))
	v["mem.ns_per_access"] = nsAccess
	v["mem.est_s"] = v["mem.l1d_accesses"] * nsAccess / 1e9

	t.modelMetrics(v)
	v["tracing.overhead_ratio"] = metrics.Ratio(t.tracedCPU.Seconds(), t.baseCPU.Seconds())

	res.note("per round of %d: trace.self_s %.6f + core.self_s %.6f = %.6f s; summed core.RunWarm spans %.6f s",
		rounds, synth.Dur.Seconds()/n, coreSelf.Seconds()/n, (synth.Dur+coreSelf).Seconds()/n, total["core.RunWarm"].Seconds()/n)
	for _, sch := range t.spec.schemes {
		if b := t.byScheme[sch.Name]; b != nil {
			res.note("%s cells: skip share %.3f, runahead share %.3f, useful fetch %.3f",
				sch.Name, metrics.Ratio(float64(b.skipped), float64(b.cycles)),
				metrics.Ratio(float64(b.runahead), float64(b.statCycles)), metrics.Ratio(float64(b.committed), float64(b.fetched)))
		}
	}
	return t.rec.write(o.spans, t.spec.name, o.seed)
}

// modelMetrics derives the paper's Fig. 1 quantities for RAR against the
// OoO baseline from the measured Stats, aggregated the way
// internal/sim's ResultSet does (harmonic mean of relative IPC, geometric
// mean of relative MTTF), and the share of the baseline's ACE bit-cycles
// accrued while the ROB head was blocked.
func (t *cellsTracer) modelMetrics(v map[string]float64) {
	var ipc, mttf []float64
	var headABC, totalABC uint64
	for _, b := range t.spec.benches {
		base, okB := t.measured[config.OoO.Name+"/"+b]
		rar, okR := t.measured[config.RAR.Name+"/"+b]
		if !okB {
			continue
		}
		headABC += base.HeadBlockedABC
		totalABC += base.TotalABC
		if okR {
			ipc = append(ipc, metrics.Ratio(rar.IPC(), base.IPC()))
			mttf = append(mttf, ace.MTTFRel(base.TotalABC, base.Cycles, rar.TotalABC, rar.Cycles))
		}
	}
	if len(ipc) > 0 {
		v["model.ipc_rel_rar"] = metrics.HarmMean(ipc)
		v["model.mttf_rel_rar"] = metrics.GeoMean(mttf)
	}
	v["ace.head_blocked_share"] = metrics.Ratio(float64(headABC), float64(totalABC))
}
