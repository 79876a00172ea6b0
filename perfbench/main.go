// Command perfbench is rarsim's benchmark. One invocation runs one
// workload for a fixed measuring time, checks that every simulated result
// is correct, and prints every metric with its name and unit: the
// end-to-end metrics in an untraced run, the per-layer metrics in a
// traced one. The last line of standard output is one JSON object; a
// human-readable report goes to standard error. README.md in this
// directory defines every workload and metric.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload mem --seed 42 --seconds 20 --trace 0
//
// The command exits 1 when any correctness check fails and 2 on bad
// usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// defaultSeed is the seed whose Stats digests are recorded in
// digests.json; other seeds run only the invariant checks.
const defaultSeed = 42

// options are one run's parameters.
type options struct {
	seed    uint64
	seconds time.Duration
	// rounds, when positive, fixes how many rounds (serve: epochs) a run
	// completes in place of the measuring time; tests set it.
	rounds  int
	traced  bool
	digests *digestBook
	// spans is the directory a traced run writes its spans to.
	spans string
}

// more reports whether a run that started at start and has completed
// done rounds starts another: the first round always runs, and later ones
// while measuring time is left. A run stops only between rounds, so its
// per-layer totals cover whole rounds.
func (o options) more(done int, start time.Time) bool {
	if o.rounds > 0 {
		return done < o.rounds
	}
	return done == 0 || since(start) < o.seconds
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*result, error){
	"mem":     func(o options) (*result, error) { return runCells(memSpec, o) },
	"compute": func(o options) (*result, error) { return runCells(computeSpec, o) },
	"chip":    runChips,
	"serve":   runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: mem, compute, chip or serve")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 10, "measuring time in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	record := fs.String("record-digests", "", "with the default seed, write this run's Stats digests into the given digests.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || fs.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: usage: --workload mem|compute|chip|serve --seed N --seconds N --trace 0|1\n")
		return 2
	}
	if *record != "" && *seed != defaultSeed {
		fmt.Fprintf(stderr, "perfbench: -record-digests needs --seed %d\n", defaultSeed)
		return 2
	}
	book, err := loadDigests(*record)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traced == 1,
		digests: book,
		spans:   ".bench_build/spans",
	}
	res, err := drive(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if *record != "" {
		if err := book.write(*record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	res.report(stderr, *workload, defs)
	line, err := res.jsonLine(defs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if res.failed > 0 {
		return 1
	}
	return 0
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the gated metrics. Every workload reports all of them in
// an untraced run; README.md gives each one's definition per workload.
var endToEnd = []metricDef{
	{"sim_insts_per_s", "insts/s"},
	{"latency_p50_ms", "ms"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the traced run's metrics. A traced run prints all of
// them; a layer the workload does not drive reads 0.
var perLayer = []metricDef{
	{"trace.insts", "count"},
	{"trace.calls", "count"},
	{"trace.self_s", "s"},
	{"trace.ns_per_inst", "ns"},

	{"core.self_s", "s"},
	{"core.cycles", "count"},
	{"core.skipped_cycles", "count"},
	{"core.skip_share", "ratio"},
	{"core.skip_share_ooo", "ratio"},
	{"core.ns_per_ticked_cycle", "ns"},
	{"core.fetched_uops", "count"},
	{"core.useful_fetch_ratio", "ratio"},
	{"core.ns_per_fetched_uop", "ns"},
	{"core.runahead_share", "ratio"},
	{"core.runahead_share_rar", "ratio"},
	{"core.runahead_useful_ratio", "ratio"},
	{"core.ff_saved_s", "s"},
	{"core.setup_s", "s"},

	{"branch.predictions", "count"},
	{"branch.mispredict_rate", "ratio"},
	{"branch.ns_per_predict", "ns"},
	{"branch.est_s", "s"},

	{"mem.l1d_accesses", "count"},
	{"mem.l1d_miss_rate", "ratio"},
	{"mem.llc_miss_rate", "ratio"},
	{"mem.mpki", "misses/kinst"},
	{"mem.mlp", "misses"},
	{"mem.mshr_full_stalls", "count"},
	{"mem.dram_reads", "count"},
	{"mem.dram_row_hit_rate", "ratio"},
	{"mem.ns_per_access", "ns"},
	{"mem.est_s", "s"},

	{"multicore.self_s", "s"},
	{"multicore.core_cycles", "count"},
	{"multicore.skipped_core_cycles", "count"},
	{"multicore.skip_share", "ratio"},
	{"multicore.skip_share_mem-ooo", "ratio"},
	{"multicore.skip_share_mixed", "ratio"},
	{"multicore.ns_per_ticked_core_cycle", "ns"},
	{"multicore.llc_misses", "count"},
	{"multicore.ff_saved_s", "s"},
	{"multicore.setup_s", "s"},

	{"sim.busy_s", "s"},
	{"sim.sim_s", "s"},
	{"sim.lookup_us_p50", "us"},
	{"sim.hit_ratio", "ratio"},
	{"sim.simulated", "count"},
	{"sim.disk_hits", "count"},
	{"sim.disk_bytes", "bytes"},
	{"sim.pool_queued_max", "count"},
	{"sim.setup_s", "s"},
	{"sim.restart_p50_ms", "ms"},

	{"serve.cold_cells_per_s", "cells/s"},
	{"serve.warm_p99_ms", "ms"},
	{"serve.self_us_p50", "us"},
	{"serve.self_s", "s"},
	{"serve.status_200", "count"},
	{"serve.status_304", "count"},
	{"serve.bytes_out", "bytes"},

	{"model.ipc_rel_rar", "ratio"},
	{"model.mttf_rel_rar", "ratio"},
	{"ace.head_blocked_share", "ratio"},

	{"tracing.overhead_ratio", "ratio"},
}

// result is one run's outcome: operation counts, metric values by name,
// and context lines for the human-readable report.
type result struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
	problems          []string
}

func newResult() *result {
	return &result{values: map[string]float64{}}
}

// op records one attempted operation (a cell, a chip or a request) and
// the correctness problems found with it; any problem fails it.
func (r *result) op(problems []string) {
	r.attempted++
	if len(problems) > 0 {
		r.failed++
		r.problems = append(r.problems, problems...)
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// jsonMetric and jsonResult are the shape of the final output line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// jsonLine renders the result over defs. A metric the workload did not
// set reads 0; a non-finite value (a ratio over nothing) also reads 0, as
// JSON has no NaN.
func (r *result) jsonLine(defs []metricDef) ([]byte, error) {
	out := jsonResult{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return json.Marshal(out)
}

func (r *result) report(w io.Writer, workload string, defs []metricDef) {
	fmt.Fprintf(w, "perfbench %s: %d attempted, %d failed\n", workload, r.attempted, r.failed)
	const shown = 20
	for i, p := range r.problems {
		if i == shown {
			fmt.Fprintf(w, "  ... and %d more problems\n", len(r.problems)-shown)
			break
		}
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.name, r.values[d.name], d.unit)
	}
	notes := append([]string(nil), r.notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}
