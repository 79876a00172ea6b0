package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rarsim/internal/sim"
)

func tinyConfig(out *bytes.Buffer) Config {
	return Config{
		Opt: sim.Options{Instructions: 4_000, Warmup: 1_000, Seed: 42},
		Out: out,
	}
}

// TestEveryFigureRuns drives each experiment end to end at a tiny scale:
// the numbers are meaningless at 4k instructions, but the plumbing —
// matrices, normalisation, table rendering — is fully exercised.
func TestEveryFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	cases := map[string][]string{
		"1":         {"Figure 1", "RAR", "rel. MTTF"},
		"3":         {"Figure 3", "compute-avg", "ROB", "total"},
		"4":         {"Figure 4", "core-4", "352"},
		"5":         {"Figure 5", "head-blocked", "average"},
		"7":         {"Figure 7a", "Figure 7b", "mem-avg", "all-avg"},
		"8":         {"Figure 8a", "Figure 8b", "mem-avg"},
		"9":         {"Figure 9", "TR-EARLY", "triggers/PRE"},
		"10":        {"Figure 10", "core-1", "RAR"},
		"11":        {"Figure 11", "+L3", "+ALL"},
		"timer":     {"countdown-timer", "timer-15", "entries/kinst"},
		"mshr":      {"MSHR", "mshr-20", "RAR MTTF"},
		"scaling":   {"back-end size", "core-4"},
		"seeds":     {"seeds", "1337"},
		"inject":    {"fault injection", "ledger AVF", "squashed"},
		"multicore": {"shared-LLC", "chip"},
		"energy":    {"event-energy", "EPI", "fetches/commit"},
	}
	for fig, wants := range cases {
		fig, wants := fig, wants
		t.Run("fig"+fig, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			if err := ByName(fig, tinyConfig(&out)); err != nil {
				t.Fatal(err)
			}
			for _, w := range wants {
				if !strings.Contains(out.String(), w) {
					t.Errorf("fig %s output missing %q:\n%s", fig, w, out.String())
				}
			}
		})
	}
}

func TestByNameUnknown(t *testing.T) {
	if err := ByName("99", Config{Out: io.Discard}); err == nil {
		t.Error("unknown figure must error")
	}
}

func TestCSVEmission(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.CSVDir = dir
	if err := Fig1(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "scheme,") {
		t.Errorf("CSV content: %q", data)
	}
}
