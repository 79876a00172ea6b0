package multicore

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/trace"
)

func loads(t *testing.T, scheme config.Scheme, names ...string) []Workload {
	t.Helper()
	var out []Workload
	for _, n := range names {
		b, err := trace.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Workload{Bench: b, Scheme: scheme})
	}
	return out
}

func runChip(t *testing.T, scheme config.Scheme, n uint64) []core.Stats {
	t.Helper()
	sys, err := New(config.Baseline(), loads(t, scheme, "libquantum", "gems", "fotonik", "milc"), 42)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sys.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestChipRuns(t *testing.T) {
	stats := runChip(t, config.OoO, 20_000)
	if len(stats) != 4 {
		t.Fatalf("cores = %d", len(stats))
	}
	for i, st := range stats {
		if st.Committed != 20_000 {
			t.Errorf("core %d committed %d", i, st.Committed)
		}
		if st.IPC() <= 0 {
			t.Errorf("core %d IPC %v", i, st.IPC())
		}
	}
}

func TestSharedLLCContention(t *testing.T) {
	// A core co-running with three memory-intensive neighbours must be
	// slower than running alone on the same configuration: the shared
	// LLC and DRAM are genuinely contended.
	solo, err := New(config.Baseline(), loads(t, config.OoO, "libquantum"), 42)
	if err != nil {
		t.Fatal(err)
	}
	soloStats, err := solo.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}
	shared := runChip(t, config.OoO, 20_000)
	if shared[0].IPC() >= soloStats[0].IPC() {
		t.Errorf("co-running IPC %v must trail solo IPC %v",
			shared[0].IPC(), soloStats[0].IPC())
	}
}

func TestChipRARImprovesMTTF(t *testing.T) {
	base := runChip(t, config.OoO, 20_000)
	rar := runChip(t, config.RAR, 20_000)
	mttf := ChipMTTFRel(base, rar)
	if mttf <= 2 {
		t.Errorf("all-RAR chip MTTF = %vx, want a large factor", mttf)
	}
	thr := ChipThroughputRel(base, rar)
	if thr < 0.8 {
		t.Errorf("all-RAR chip throughput = %v, too low", thr)
	}
	if ChipMTTFRel(base, base) != 1 {
		t.Error("baseline vs itself must be 1.0")
	}
}

func TestHeterogeneousChip(t *testing.T) {
	// Mixed schemes: two RAR cores next to two OoO cores. The chip's
	// reliability must land between all-OoO and all-RAR.
	b1, _ := trace.ByName("libquantum")
	b2, _ := trace.ByName("gems")
	b3, _ := trace.ByName("fotonik")
	b4, _ := trace.ByName("milc")
	sys, err := New(config.Baseline(), []Workload{
		{Bench: b1, Scheme: config.RAR},
		{Bench: b2, Scheme: config.OoO},
		{Bench: b3, Scheme: config.RAR},
		{Bench: b4, Scheme: config.OoO},
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := sys.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}
	base := runChip(t, config.OoO, 20_000)
	rar := runChip(t, config.RAR, 20_000)
	mMixed := ChipMTTFRel(base, mixed)
	mRAR := ChipMTTFRel(base, rar)
	if !(1 < mMixed && mMixed < mRAR) {
		t.Errorf("mixed chip MTTF %v must sit between 1 and all-RAR %v", mMixed, mRAR)
	}
}

func TestEmptySystem(t *testing.T) {
	if _, err := New(config.Baseline(), nil, 1); err == nil {
		t.Error("empty workload list must error")
	}
}

// TestChipRelZeroDenominators pins the zero-collapse fix: a zero
// denominator (empty chip, or a run with no derated failure rate /
// no committed work) must read as NaN — unmistakably "undefined" — not
// as 0, which a report would silently render as the worst possible
// chip. Same family as the HarmMean/GeoMean fix of PR 1.
func TestChipRelZeroDenominators(t *testing.T) {
	live := core.Stats{Cycles: 1000, Committed: 500, TotalABC: 4000, TotalBits: 1 << 20}
	dead := core.Stats{} // no cycles, no bits: AVF and IPC both 0

	cases := []struct {
		name             string
		fn               func(baseline, system []core.Stats) float64
		baseline, system []core.Stats
		wantNaN          bool
		want             float64
	}{
		{"mttf empty chips", ChipMTTFRel, nil, nil, true, 0},
		{"mttf zero-AVF system", ChipMTTFRel, []core.Stats{live}, []core.Stats{dead}, true, 0},
		{"mttf empty system", ChipMTTFRel, []core.Stats{live}, nil, true, 0},
		{"mttf self is one", ChipMTTFRel, []core.Stats{live}, []core.Stats{live}, false, 1},
		{"throughput empty chips", ChipThroughputRel, nil, nil, true, 0},
		{"throughput zero baseline", ChipThroughputRel, []core.Stats{dead}, []core.Stats{live}, true, 0},
		{"throughput self is one", ChipThroughputRel, []core.Stats{live}, []core.Stats{live}, false, 1},
		{"throughput stalled system is zero", ChipThroughputRel, []core.Stats{live}, []core.Stats{dead}, false, 0},
	}
	for _, tc := range cases {
		got := tc.fn(tc.baseline, tc.system)
		if tc.wantNaN {
			if !math.IsNaN(got) {
				t.Errorf("%s = %v, want NaN", tc.name, got)
			}
		} else if got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestOneCoreChipMatchesRun pins the seam between a private and a
// shared-LLC memory hierarchy: Core.Run and System.Run drive the same
// core.Lockstep loop, so a one-core chip, whose core sees the LLC and DRAM
// through mem.NewHierarchyWithShared, must reproduce Core.Run on a private
// mem.NewHierarchy field for field, with the fast-forward on and off on
// both sides, and with invariant audits armed on both sides.
func TestOneCoreChipMatchesRun(t *testing.T) {
	const n = 20_000
	type cell struct {
		bench  string
		scheme config.Scheme
		ff     bool
		audit  uint64
	}
	var cells []cell
	for _, b := range []string{"mcf", "libquantum", "soplex", "x264"} {
		for _, s := range []config.Scheme{config.OoO, config.FLUSH, config.RAR} {
			cells = append(cells, cell{b, s, true, 0}, cell{b, s, false, 0})
		}
	}
	cells = append(cells, cell{"mcf", config.RAR, true, 500})
	for _, tc := range cells {
		tc := tc
		t.Run(fmt.Sprintf("%s/%s/ff=%v/audit=%d", tc.bench, tc.scheme.Name, tc.ff, tc.audit), func(t *testing.T) {
			t.Parallel()
			ld := loads(t, tc.scheme, tc.bench)
			c := core.New(config.Baseline(), tc.scheme, ld[0].Bench, 42)
			c.SetStallFastForward(tc.ff)
			sys, err := New(config.Baseline(), ld, 42)
			if err != nil {
				t.Fatal(err)
			}
			sys.SetStallFastForward(tc.ff)
			if tc.audit > 0 {
				c.EnableAudit(tc.audit)
				sys.Core(0).EnableAudit(tc.audit)
			}
			want, err := c.Run(n)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sys.Run(n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[0], want) {
				t.Errorf("one-core chip diverges from Core.Run:\nchip: %+v\ncore: %+v", got[0], want)
			}
		})
	}
}
