// Package report renders experiment results as aligned ASCII tables and
// CSV, matching the rows and series of the paper's figures.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Write renders the table to w.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "## %s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, 0, len(widths))
		for i := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts = append(parts, fmt.Sprintf("%-*s", widths[i], c))
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	seps := make([]string, len(widths))
	for i, wd := range widths {
		seps[i] = strings.Repeat("-", wd)
	}
	line(seps)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the table as CSV to w.
func (t *Table) WriteCSV(w io.Writer) {
	write := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	write(t.Header)
	for _, r := range t.Rows {
		write(r)
	}
}

// F formats a float with three decimals, for ad-hoc rows.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// X formats a ratio as "N.NNx".
func X(v float64) string { return fmt.Sprintf("%.2fx", v) }
