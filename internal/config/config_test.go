package config

import (
	"strings"
	"testing"

	"rarsim/internal/mem"
)

// TestBaselineMatchesTableII pins the baseline core to the paper's Table II.
func TestBaselineMatchesTableII(t *testing.T) {
	c := Baseline()
	if c.ROB != 192 || c.IQ != 92 || c.LQ != 64 || c.SQ != 64 {
		t.Errorf("back-end sizes: %+v", c)
	}
	if c.Width != 4 || c.FrontEndDepth != 8 {
		t.Errorf("width/depth: %d/%d", c.Width, c.FrontEndDepth)
	}
	if c.IntRegs != 168 || c.FpRegs != 168 {
		t.Errorf("register files: %d/%d", c.IntRegs, c.FpRegs)
	}
	if c.SST != 128 || c.PRDQ != 192 {
		t.Errorf("SST/PRDQ: %d/%d", c.SST, c.PRDQ)
	}
	if c.IntAdd.Count != 3 || c.IntAdd.Latency != 1 || !c.IntAdd.Pipelined {
		t.Errorf("int add pool: %+v", c.IntAdd)
	}
	if c.IntDiv.Latency != 18 || c.IntDiv.Pipelined {
		t.Errorf("int div pool: %+v", c.IntDiv)
	}
	if c.FpMult.Latency != 5 || c.FpDiv.Latency != 6 || c.FpAdd.Latency != 3 {
		t.Error("FP latencies do not match Table II")
	}
	if c.RunaheadTimer != 15 {
		t.Errorf("runahead countdown = %d, want 15", c.RunaheadTimer)
	}
	if c.Mem.L1DSize != 32<<10 || c.Mem.L2Size != 256<<10 || c.Mem.L3Size != 1<<20 {
		t.Errorf("cache sizes: %+v", c.Mem)
	}
	if c.Mem.MSHRs != 20 {
		t.Errorf("MSHRs = %d, want 20", c.Mem.MSHRs)
	}
	if c.Mem.Prefetch != mem.PrefetchOff {
		t.Error("baseline must not have a prefetcher (§IV-A)")
	}
	if c.IntFUCount() != 5 || c.FpFUCount() != 3 {
		t.Errorf("FU counts: %d int, %d fp", c.IntFUCount(), c.FpFUCount())
	}
}

// TestScaledCoresMatchTableI pins the scaling configurations to Table I.
func TestScaledCoresMatchTableI(t *testing.T) {
	cores := ScaledCores()
	if len(cores) != 4 {
		t.Fatalf("expected 4 cores, got %d", len(cores))
	}
	type row struct{ rob, iq, lq, sq, regs int }
	want := []row{
		{128, 36, 48, 32, 120},
		{192, 92, 64, 64, 168},
		{224, 97, 64, 60, 180},
		{352, 128, 128, 72, 256},
	}
	for i, w := range want {
		c := cores[i]
		if c.ROB != w.rob || c.IQ != w.iq || c.LQ != w.lq || c.SQ != w.sq ||
			c.IntRegs != w.regs || c.FpRegs != w.regs {
			t.Errorf("core-%d = %+v, want %+v", i+1, c, w)
		}
		if c.PRDQ != c.ROB {
			t.Errorf("core-%d PRDQ should scale with ROB", i+1)
		}
	}
}

// TestSchemeMatrixMatchesTableIV pins the variant feature matrix.
func TestSchemeMatrixMatchesTableIV(t *testing.T) {
	type row struct{ early, flush, lean bool }
	want := map[string]row{
		"TR":        {false, true, false},
		"TR-EARLY":  {true, true, false},
		"PRE":       {false, false, true},
		"PRE-EARLY": {true, false, true},
		"RAR-LATE":  {false, true, true},
		"RAR":       {true, true, true},
	}
	for _, s := range RunaheadVariants() {
		w, ok := want[s.Name]
		if !ok {
			if s.Name != "FLUSH" {
				t.Errorf("unexpected variant %q", s.Name)
			}
			continue
		}
		if s.Early != w.early || s.FlushAtExit != w.flush || s.Lean != w.lean {
			t.Errorf("%s = early=%v flush=%v lean=%v, want %+v",
				s.Name, s.Early, s.FlushAtExit, s.Lean, w)
		}
		if !s.Runahead || s.FlushAtEntry {
			t.Errorf("%s must be a runahead scheme", s.Name)
		}
	}
	if !TR.IssueWindow || TREarly.IssueWindow {
		t.Error("only TR carries the issue-window filter")
	}
	if !FLUSH.FlushAtEntry || FLUSH.Runahead {
		t.Error("FLUSH is flush-at-entry, not runahead")
	}
	if OoO.Runahead || OoO.FlushAtEntry {
		t.Error("OoO is the plain baseline")
	}
}

func TestSchemeByName(t *testing.T) {
	for _, name := range []string{"OoO", "FLUSH", "TR", "TR-EARLY", "PRE", "PRE-EARLY", "RAR-LATE", "RAR"} {
		s, err := SchemeByName(name)
		if err != nil || s.Name != name {
			t.Errorf("SchemeByName(%q) = %v, %v", name, s.Name, err)
		}
	}
	if _, err := SchemeByName("nope"); err == nil {
		t.Error("unknown scheme must error")
	}
}

func TestCoreByName(t *testing.T) {
	names := CoreNames()
	if len(names) != 1+len(ScaledCores()) || names[0] != "baseline" {
		t.Fatalf("CoreNames() = %v", names)
	}
	for _, name := range names {
		c, err := CoreByName(name)
		if err != nil || c.Name != name {
			t.Errorf("CoreByName(%q) = %v, %v", name, c.Name, err)
		}
	}
	_, err := CoreByName("core-99")
	if err == nil {
		t.Fatal("unknown core must error")
	}
	for _, want := range []string{`"core-99"`, "baseline", "core-4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

func TestWithPrefetch(t *testing.T) {
	c := Baseline().WithPrefetch(mem.PrefetchL3)
	if c.Mem.Prefetch != mem.PrefetchL3 || c.Mem.PrefetchDegree == 0 {
		t.Errorf("prefetch config: %+v", c.Mem)
	}
	if c.Name == Baseline().Name {
		t.Error("prefetch-enabled core must get a distinct name")
	}
	// The original is unaffected (value semantics).
	if Baseline().Mem.Prefetch != mem.PrefetchOff {
		t.Error("Baseline() mutated")
	}
}

func TestSchemesList(t *testing.T) {
	s := Schemes()
	if len(s) != 5 || s[0].Name != "OoO" || s[len(s)-1].Name != "RAR" {
		t.Errorf("Schemes() = %v", s)
	}
	if len(RunaheadVariants()) != 7 {
		t.Errorf("RunaheadVariants() has %d entries", len(RunaheadVariants()))
	}
}
