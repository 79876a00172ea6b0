package energy

import (
	"math"
	"testing"

	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/mem"
	"rarsim/internal/trace"
)

func runStats(t *testing.T, scheme config.Scheme, benchName string) core.Stats {
	t.Helper()
	b, err := trace.ByName(benchName)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.New(config.Baseline(), scheme, b, 42).RunWarm(20_000, 80_000)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestBreakdownArithmetic(t *testing.T) {
	m := DefaultModel()
	st := core.Stats{
		Committed:       1000,
		Cycles:          2000,
		TotalFetched:    1500,
		TotalDispatched: 1400,
		TotalIssued:     1300,
		Mem:             mem.Stats{DemandLoads: 300, DRAMReads: 10, DRAMWrites: 5},
	}
	b := m.Estimate(st)
	wantFE := (1500*m.FetchPJ + 1400*m.DispatchPJ) * 1e-6
	if b.FrontEnd != wantFE {
		t.Errorf("front-end = %v, want %v", b.FrontEnd, wantFE)
	}
	if b.Total() != b.FrontEnd+b.Execute+b.Memory+b.Static {
		t.Error("total must sum the parts")
	}
	// By hand, in µJ: front end (1500·12 + 1400·18) pJ = 0.0432, execute
	// 1300·25 pJ = 0.0325, memory (300·10 + 15·2000) pJ = 0.033, static
	// 2000·45 pJ = 0.09; total 0.1987 µJ over 1000 instructions. The
	// baseline is the same run in half the cycles: static 0.045, total
	// 0.1537.
	baseline := st
	baseline.Cycles = 1000
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"execute", b.Execute, 0.0325},
		{"memory", b.Memory, 0.033},
		{"static", b.Static, 0.09},
		{"EPI", m.EPI(st), 198.7},
		{"overhead", m.Overhead(baseline, st), 0.1987 / 0.1537},
	} {
		if math.Abs(c.got-c.want) > 1e-12*c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if m.EPI(core.Stats{}) != 0 {
		t.Error("EPI of an empty run must be 0")
	}
}

// TestRunaheadEnergyProfile encodes the literature's energy story: PRE's
// extra speculative activity costs energy per instruction, but the shorter
// runtime claws static energy back — total overhead stays modest (the PRE
// paper reports a few percent), nothing like the 2x of full redundancy.
func TestRunaheadEnergyProfile(t *testing.T) {
	m := DefaultModel()
	base := runStats(t, config.OoO, "libquantum")
	pre := runStats(t, config.PRE, "libquantum")
	rar := runStats(t, config.RAR, "libquantum")

	for name, st := range map[string]core.Stats{"PRE": pre, "RAR": rar} {
		ov := m.Overhead(base, st)
		if ov > 1.5 {
			t.Errorf("%s energy overhead %.2fx implausibly high", name, ov)
		}
		if ov < 0.5 {
			t.Errorf("%s energy overhead %.2fx implausibly low", name, ov)
		}
	}
	// Runahead schemes do more front-end work per committed instruction.
	if pre.TotalFetched <= base.TotalFetched {
		t.Error("PRE must fetch more than the baseline (runahead refetch)")
	}
	if rar.TotalDispatched <= base.TotalDispatched {
		t.Error("RAR must dispatch more than the baseline (flush refill)")
	}
}

func TestOverheadDegenerate(t *testing.T) {
	m := DefaultModel()
	if m.Overhead(core.Stats{}, core.Stats{Cycles: 5}) != 0 {
		t.Error("zero baseline must yield 0")
	}
}
