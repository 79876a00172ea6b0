package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/trace"
)

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := span{Name: "p", Parent: -1, Start: 10 * ms, End: 110 * ms,
		Aggs: []aggregate{{Name: "a", Dur: 5 * ms}, {Name: "b", Dur: 3 * ms}}}
	kids := []span{
		{Name: "k", Parent: 0, Start: 20 * ms, End: 40 * ms},
		{Name: "k", Parent: 0, Start: 30 * ms, End: 50 * ms},   // overlaps the first: union 20..50
		{Name: "k", Parent: 0, Start: 100 * ms, End: 130 * ms}, // clipped to 100..110
		{Name: "k", Parent: 0, Start: 0, End: 5 * ms},          // outside the parent
	}
	// 100 - (30 + 10) covered - 8 aggregated.
	if got, want := selfTime(parent, kids), 52*ms; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got, want := selfTime(parent, nil), 92*ms; got != want {
		t.Errorf("selfTime without children = %v, want %v", got, want)
	}

	total, self := spanTotals(append([]span{parent}, kids...))
	if total["k"] != 75*ms || self["k"] != 75*ms {
		t.Errorf("children: total %v self %v, want 75ms each", total["k"], self["k"])
	}
	if total["p"] != 100*ms || self["p"] != 52*ms {
		t.Errorf("parent: total %v self %v, want 100ms and 52ms", total["p"], self["p"])
	}
}

func TestRecorderSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("cell", "c", -1)
	start := now()
	r.interval("run", "c", root, start, start.Add(time.Millisecond))
	r.aggregate(root, aggregate{Name: "synth", Calls: 2, Items: 128, Dur: time.Microsecond})
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].End-spans[1].Start != time.Millisecond {
		t.Fatalf("spans = %+v", spans)
	}
	if a := aggTotals(spans, "synth"); a.Calls != 2 || a.Items != 128 || a.Dur != time.Microsecond {
		t.Errorf("aggTotals = %+v", a)
	}
}

func TestPercentileAndTailRule(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 0.25); got != 2 {
		t.Errorf("p25 = %v, want 2", got)
	}
	if got := percentile(xs, 0.9); got != 4.6 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	for _, c := range []struct {
		n, beyond int
	}{{0, 0}, {100, 1}, {901, 9}, {902, 10}, {1000, 10}, {2000, 20}} {
		if got := samplesBeyond(c.n, 0.99); got != c.beyond {
			t.Errorf("samplesBeyond(%d, 0.99) = %d, want %d", c.n, got, c.beyond)
		}
	}
	// 902 samples is the least that puts minBeyond beyond a p99, and
	// each serve epoch's warm phase must supply at least that many 200s,
	// the replies the warm percentiles are taken over.
	if samplesBeyond(901, 0.99) >= minBeyond || samplesBeyond(902, 0.99) < minBeyond {
		t.Error("the p99 tail rule does not start at 902 samples")
	}
	_, warm, _ := serveTraffic()
	ok := 0
	for _, w := range warm {
		if !w.revalidate {
			ok++
		}
	}
	if got := samplesBeyond(ok, 0.99); got < minBeyond {
		t.Errorf("a serve epoch's %d warm 200s put %d beyond p99, want at least %d", ok, got, minBeyond)
	}
}

// TestServeTraffic pins the serve workload's requests to cmd/rarload's
// hot/cold mix at its defaults and checks that a seed always gives the
// same request bodies.
func TestServeTraffic(t *testing.T) {
	cold, warm, matrices := serveTraffic()
	cold2, warm2, _ := serveTraffic()
	if !reflect.DeepEqual(cold, cold2) || !reflect.DeepEqual(warm, warm2) {
		t.Fatal("two traffic sequences differ")
	}
	// rarload's accumulator at -hot 0.75 starts cold, hot, hot, hot.
	want := []serveReq{{matrix: 1}, {}, {}, {}, {matrix: 2}}
	if !reflect.DeepEqual(cold[:len(want)], want) {
		t.Errorf("cold phase starts %+v, want %+v", cold[:len(want)], want)
	}
	hot, seen := 0, map[int]bool{}
	for _, r := range cold {
		if r.matrix == 0 {
			hot++
		}
		seen[r.matrix] = true
	}
	if len(cold) != 32 || hot != 24 || matrices != 9 || len(seen) != matrices {
		t.Errorf("cold phase: %d requests, %d hot, %d matrices (%d asked for), want 32, 24, 9", len(cold), hot, matrices, len(seen))
	}
	hot, revalidate := 0, 0
	for _, r := range warm {
		if r.matrix < 0 || r.matrix >= matrices {
			t.Fatalf("warm request for matrix %d, which the cold phase did not simulate", r.matrix)
		}
		if r.matrix == 0 {
			hot++
		}
		if r.revalidate {
			revalidate++
		}
	}
	if len(warm) < 1000 || hot*4 != len(warm)*3 || revalidate*4 != len(warm) {
		t.Errorf("warm phase: %d requests, %d hot, %d revalidating; want at least 1000, three quarters hot, a quarter revalidating", len(warm), hot, revalidate)
	}

	seeds := map[uint64]bool{}
	for k := 0; k < matrices; k++ {
		a, b := matrixRequest(42, k), matrixRequest(42, k)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("matrix %d: two requests for seed 42 differ", k)
		}
		if reflect.DeepEqual(a, matrixRequest(43, k)) {
			t.Errorf("matrix %d: seeds 42 and 43 give the same request", k)
		}
		seeds[a.Seed] = true
	}
	if len(seeds) != matrices {
		t.Errorf("matrices share seeds: %d distinct of %d", len(seeds), matrices)
	}
}

// TestPerLayerValuesArePerRound checks that a traced run reports one
// round's work however many rounds fit into its measuring time: counts
// and ratios of counts are exactly equal after one round and after three,
// and times do not grow with the rounds.
func TestPerLayerValuesArePerRound(t *testing.T) {
	spec := cellsSpec{
		name:     "mem",
		schemes:  []config.Scheme{config.OoO, config.RAR},
		benches:  []string{"mcf"},
		warmup:   1_000,
		measured: 5_000,
	}
	run := func(rounds int) map[string]float64 {
		res, err := runCells(spec, options{seed: 7, rounds: rounds, traced: true, spans: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || res.attempted != rounds*2 {
			t.Fatalf("%d rounds: %d of %d cells failed: %v", rounds, res.failed, res.attempted, res.problems)
		}
		return res.values
	}
	one, three := run(1), run(3)
	timed := map[string]bool{
		"trace.self_s": true, "trace.ns_per_inst": true, "core.self_s": true,
		"core.ns_per_ticked_cycle": true, "core.ns_per_fetched_uop": true,
		"core.ff_saved_s": true, "core.setup_s": true, "branch.ns_per_predict": true,
		"branch.est_s": true, "mem.ns_per_access": true, "mem.est_s": true,
		"tracing.overhead_ratio": true,
	}
	for _, d := range perLayer {
		if !timed[d.name] && one[d.name] != three[d.name] {
			t.Errorf("%s: %v after one round, %v after three", d.name, one[d.name], three[d.name])
		}
	}
	if one["core.cycles"] == 0 || one["trace.insts"] == 0 {
		t.Fatalf("the traced run counted nothing: %v", one)
	}
	// A total over three rounds would read about three times one round's.
	for _, name := range []string{"trace.self_s", "core.self_s", "branch.est_s", "mem.est_s"} {
		if three[name] > 2*one[name] {
			t.Errorf("%s: %v after three rounds, more than twice the %v after one", name, three[name], one[name])
		}
	}
}

func TestStatsDigestIsStable(t *testing.T) {
	b, err := trace.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	cell := func(seed uint64) core.Stats {
		st, err := core.New(config.Baseline(), config.RAR, b, seed).RunWarm(2_000, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	first, second := digest(cell(42)), digest(cell(42))
	if first != second {
		t.Errorf("one cell digests to %s and %s", first, second)
	}
	if other := digest(cell(43)); other == first {
		t.Errorf("seeds 42 and 43 share the digest %s", first)
	}
}

// TestCatalogueMatchesBenchmarkJSON pins the metrics and workloads the
// program prints to the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside perfbench: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "mem", "--trace", "2"},
		{"--workload", "mem", "--seconds", "0"},
		{"--workload", "mem", "--seed", "7", "--record-digests", "x.json"},
	} {
		var stdout strings.Builder
		if code := run(args, &stdout, io.Discard); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and none", args, code, stdout.String())
		}
	}
}

func TestResultLine(t *testing.T) {
	r := newResult()
	r.op(nil)
	r.op([]string{"broken"})
	r.values["sim_insts_per_s"] = 1.5
	r.values["setup_s"] = 0 / func() float64 { return 0 }() // NaN
	line, err := r.jsonLine(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var out jsonResult
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Attempted != 2 || out.Failed != 1 || len(out.Metrics) != len(endToEnd) {
		t.Errorf("result line %s", line)
	}
	if m := out.Metrics["sim_insts_per_s"]; m.Value != 1.5 || m.Unit != "insts/s" {
		t.Errorf("sim_insts_per_s = %+v", m)
	}
	if m := out.Metrics["setup_s"]; m.Value != 0 {
		t.Errorf("a NaN metric reads %v, want 0", m.Value)
	}
}
