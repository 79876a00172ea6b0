package report

import (
	"strings"
	"testing"
)

func TestTableWrite(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1.0")
	tb.AddRow("beta-longer", "2.0")
	var sb strings.Builder
	tb.Write(&sb)
	out := sb.String()
	if !strings.Contains(out, "## Demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "name") || !strings.Contains(out, "value") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "beta-longer") {
		t.Error("missing row")
	}
	// Columns align: 'value' entries start at the same offset in each line.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines: %q", len(lines), out)
	}
	h := strings.Index(lines[1], "value")
	r1 := strings.Index(lines[3], "1.0")
	r2 := strings.Index(lines[4], "2.0")
	if h != r1 || r1 != r2 {
		t.Errorf("columns misaligned: %d %d %d", h, r1, r2)
	}
}

func TestCSVQuoting(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`comma,here`, `quote"inside`)
	var sb strings.Builder
	tb.WriteCSV(&sb)
	out := sb.String()
	if !strings.Contains(out, `"comma,here"`) {
		t.Errorf("comma field not quoted: %q", out)
	}
	if !strings.Contains(out, `"quote""inside"`) {
		t.Errorf("quote not doubled: %q", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("header line: %q", out)
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456) != "1.235" {
		t.Errorf("F = %q", F(1.23456))
	}
	if X(4.8) != "4.80x" {
		t.Errorf("X = %q", X(4.8))
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only-one")
	var sb strings.Builder
	tb.Write(&sb) // must not panic on short rows
	if !strings.Contains(sb.String(), "only-one") {
		t.Error("short row dropped")
	}
}
