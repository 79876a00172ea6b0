package main

import (
	"fmt"
	"runtime"
	"time"

	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/metrics"
	"rarsim/internal/multicore"
	"rarsim/internal/trace"
)

// chipSpec is one multicore chip: core i runs benches[i] under
// schemes[i%len(schemes)], all sharing one LLC and DRAM.
type chipSpec struct {
	name    string
	benches []string
	schemes []config.Scheme
}

// chipSpecs are the chip workload's two chips. On mem-ooo the per-core
// deferral skips most core-cycles; on mixed the runahead cores keep
// busy and it skips almost none.
var chipSpecs = []chipSpec{
	{"mem-ooo", []string{"mcf", "libquantum", "soplex", "astar"}, []config.Scheme{config.OoO}},
	{"mixed", []string{"libquantum", "exchange2", "mcf", "x264"}, []config.Scheme{config.RAR, config.OoO}},
}

// chipInsts is the committed-instruction count of every chip core.
// multicore.System.Run has no warmup: caches start empty.
const chipInsts = 100_000

func (c chipSpec) loads() ([]multicore.Workload, error) {
	var out []multicore.Workload
	for i, name := range c.benches {
		b, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, multicore.Workload{Bench: b, Scheme: c.schemes[i%len(c.schemes)]})
	}
	return out, nil
}

// chipRun is one simulated chip with its host timings, as for cellRun.
type chipRun struct {
	sys                          *multicore.System
	stats                        []core.Stats
	setupStart, runStart, runEnd time.Time
	setupCPU, cpu                time.Duration
}

func (r chipRun) setup() time.Duration { return r.runStart.Sub(r.setupStart) }

func simulateChip(cfg config.Core, spec chipSpec, loads []multicore.Workload, seed uint64, ff bool) (chipRun, error) {
	runtime.GC()
	var r chipRun
	cpu0 := cpuTime()
	r.setupStart = now()
	sys, err := multicore.New(cfg, loads, seed)
	if err != nil {
		return r, fmt.Errorf("chip %s: %w", spec.name, err)
	}
	r.sys = sys
	sys.SetStallFastForward(ff)
	r.runStart = now()
	cpu1 := cpuTime()
	st, err := sys.Run(chipInsts)
	r.cpu = cpuTime() - cpu1
	r.runEnd = now()
	r.setupCPU = cpu1 - cpu0
	if err != nil {
		return r, fmt.Errorf("chip %s: %w", spec.name, err)
	}
	r.stats = st
	return r, nil
}

// checkChip runs the per-chip invariants: every core commits exactly
// chipInsts, and each core's Stats digest equals its first run in this
// process and, at the default seed, the recorded one.
func checkChip(o options, spec chipSpec, r chipRun, first map[string]string) []string {
	var p []string
	if len(r.stats) != len(spec.benches) {
		return []string{fmt.Sprintf("chip %s: %d cores' Stats, want %d", spec.name, len(r.stats), len(spec.benches))}
	}
	for i, st := range r.stats {
		id := fmt.Sprintf("%s/%d", spec.name, i)
		if st.Committed != chipInsts || r.sys.Core(i).Committed() != chipInsts {
			p = append(p, fmt.Sprintf("chip %s: committed %d instructions, want %d", id, st.Committed, uint64(chipInsts)))
		}
		d := digest(st)
		if f, ok := first[id]; ok {
			if f != d {
				p = append(p, fmt.Sprintf("chip %s: Stats digest %s differs from this run's first %s", id, d, f))
			}
			continue
		}
		first[id] = d
		p = append(p, o.digests.check(o, "chip", id, d)...)
	}
	return p
}

// runChips drives the chip workload: whole rounds over both chips until
// the measuring time is spent, at least one. Each
// end-to-end metric is built from per-chip medians over the rounds;
// costs are timed in process CPU time, as for the cells workloads.
func runChips(o options) (*result, error) {
	cfg := config.Baseline()
	loads := make([][]multicore.Workload, len(chipSpecs))
	ids := make([]string, len(chipSpecs))
	var insts float64
	for i, spec := range chipSpecs {
		l, err := spec.loads()
		if err != nil {
			return nil, err
		}
		loads[i] = l
		ids[i] = spec.name
		insts += float64(len(l) * chipInsts)
	}
	res := newResult()
	var tr *chipTracer
	if o.traced {
		tr = &chipTracer{rec: newRecorder(), skip: map[string][2]uint64{}}
	}
	first := map[string]string{}
	cpu, chipCPU, setup := samples{}, samples{}, samples{}
	start := now()
	rounds := 0
	for ; o.more(rounds, start); rounds++ {
		for i, spec := range chipSpecs {
			r, err := simulateChip(cfg, spec, loads[i], o.seed, true)
			if err != nil {
				res.op([]string{err.Error()})
				continue
			}
			problems := checkChip(o, spec, r, first)
			if tr != nil {
				problems = append(problems, tr.chip(o, cfg, spec, loads[i], r, rounds)...)
			}
			res.op(problems)
			cpu.add(spec.name, r.cpu.Seconds())
			chipCPU.add(spec.name, (r.setupCPU + r.cpu).Seconds())
			setup.add(spec.name, r.setup().Seconds())
		}
	}
	res.note("%d chips (%d instructions per core) simulated in %d rounds", len(chipSpecs), uint64(chipInsts), rounds)
	if tr != nil {
		res.values["multicore.setup_s"] = setup.sumOfMedians(ids)
		return res, tr.finish(res, o, rounds)
	}
	res.values["sim_insts_per_s"] = metrics.Ratio(insts, cpu.sumOfMedians(ids))
	res.values["latency_p50_ms"] = 1e3 * median(chipCPU.medians(ids))
	res.values["setup_s"] = setup.sumOfMedians(ids)
	res.values["max_rss_mb"] = maxRSSMB()
	return res, nil
}

// chipTracer runs a traced chip workload's extra work: a traced re-run
// and a fast-forward-off re-run per chip, both of which must reproduce
// the untraced run's per-core Stats. Counters and times add up over the
// run's rounds; the metrics report them per round.
type chipTracer struct {
	rec                         *recorder
	coreCycles, skipped, llcMis uint64
	skip                        map[string][2]uint64 // per chip: skipped core-cycles, core-cycles
	baseCPU, tracedCPU, ffSaved time.Duration
}

func (t *chipTracer) chip(o options, cfg config.Core, spec chipSpec, loads []multicore.Workload, base chipRun, round int) []string {
	id := fmt.Sprintf("chip/%s#%d", spec.name, round)
	root := t.rec.begin("chip", id, -1)
	defer t.rec.end(root)
	var p []string
	traced, err := simulateChip(cfg, spec, loads, o.seed, true)
	if err != nil {
		return []string{err.Error()}
	}
	t.rec.interval("multicore.setup", id, root, traced.setupStart, traced.runStart)
	t.rec.interval("multicore.Run", id, root, traced.runStart, traced.runEnd)
	if digest(traced.stats) != digest(base.stats) {
		p = append(p, fmt.Sprintf("%s: traced run's Stats differ from the untraced run's", id))
	}
	var cycles uint64
	for i := 0; i < traced.sys.Cores(); i++ {
		cycles += traced.sys.Core(i).CycleCount()
	}
	skipped := traced.sys.FFSkippedCycles()
	t.coreCycles += cycles
	t.skipped += skipped
	s := t.skip[spec.name]
	t.skip[spec.name] = [2]uint64{s[0] + skipped, s[1] + cycles}
	// The LLC is shared: every core's hierarchy points at the same one.
	t.llcMis += traced.sys.Core(0).Hierarchy().L3.Misses()
	t.baseCPU += base.cpu
	t.tracedCPU += traced.cpu

	off, err := simulateChip(cfg, spec, loads, o.seed, false)
	if err != nil {
		return append(p, err.Error())
	}
	t.rec.interval("multicore.Run.ff-off", id, root, off.runStart, off.runEnd)
	t.ffSaved += off.cpu - base.cpu
	if digest(off.stats) != digest(base.stats) {
		p = append(p, fmt.Sprintf("%s: fast-forward-off Stats differ from the fast-forward-on run's", id))
	}
	return p
}

func (t *chipTracer) finish(res *result, o options, rounds int) error {
	_, self := spanTotals(t.rec.snapshot())
	runSelf := self["multicore.Run"]
	v := res.values
	n := float64(rounds)
	v["multicore.self_s"] = runSelf.Seconds() / n
	v["multicore.core_cycles"] = float64(t.coreCycles) / n
	v["multicore.skipped_core_cycles"] = float64(t.skipped) / n
	v["multicore.skip_share"] = metrics.Ratio(float64(t.skipped), float64(t.coreCycles))
	for _, spec := range chipSpecs {
		s := t.skip[spec.name]
		v["multicore.skip_share_"+spec.name] = metrics.Ratio(float64(s[0]), float64(s[1]))
	}
	v["multicore.ns_per_ticked_core_cycle"] = nsPer(runSelf, t.coreCycles-t.skipped)
	v["multicore.llc_misses"] = float64(t.llcMis) / n
	v["multicore.ff_saved_s"] = t.ffSaved.Seconds() / n
	v["tracing.overhead_ratio"] = metrics.Ratio(t.tracedCPU.Seconds(), t.baseCPU.Seconds())
	return t.rec.write(o.spans, "chip", o.seed)
}
