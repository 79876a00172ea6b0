package lint

// Command-line driver shared by cmd/rarlint and the tests, so the exact
// exit-code behaviour CI depends on is itself testable.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Exit codes.
const (
	ExitClean    = 0 // no findings
	ExitFindings = 1 // at least one finding
	ExitError    = 2 // usage or load/type-check failure
)

// Main runs rarlint with the given arguments (excluding the program
// name) and returns its exit code. Findings go to stdout, errors to
// stderr.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rarlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: rarlint [-json] [module-dir | ./...]\n\n"+
			"Static analysis of a Go module's simulator contracts, _test.go files\n"+
			"included. Checks:\n")
		for _, a := range Analyzers() {
			fmt.Fprintf(stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nSuppress an audited finding in place with "+
			"`//rarlint:allow <check> <reason>`\non the flagged line, or alone on the line above it.\n")
	}
	if err := fs.Parse(args); err != nil {
		return ExitError
	}

	dir := "."
	switch fs.NArg() {
	case 0:
	case 1:
		// "./..." is accepted for go-tool muscle memory: rarlint always
		// analyzes the whole module containing the named directory.
		dir = strings.TrimSuffix(fs.Arg(0), "...")
		dir = strings.TrimSuffix(dir, string(filepath.Separator))
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" {
			dir = "."
		}
	default:
		fs.Usage()
		return ExitError
	}

	root, err := findModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, "rarlint:", err)
		return ExitError
	}
	mod, err := LoadModuleWithTests(root)
	if err != nil {
		fmt.Fprintln(stderr, "rarlint:", err)
		return ExitError
	}

	diags, err := Run(mod, nil)
	if err != nil {
		fmt.Fprintln(stderr, "rarlint:", err)
		return ExitError
	}
	cwd, _ := os.Getwd()
	for i := range diags {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				diags[i].Pos.Filename = rel
			}
		}
	}
	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "rarlint:", err)
			return ExitError
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) == 0 {
		return ExitClean
	}
	fmt.Fprintf(stderr, "rarlint: %d finding(s)\n", len(diags))
	return ExitFindings
}

// jsonDiagnostic is the schema-stable -json record. Field names and
// types are a compatibility contract with CI (which rewrites them into
// GitHub Actions ::error annotations); extend, never rename.
type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// writeJSON renders diagnostics as a JSON array ("[]" on a clean run,
// so pipelines can always parse stdout).
func writeJSON(w io.Writer, diags []Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:    d.Pos.Filename,
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Check:   d.Check,
			Message: d.Message,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// findModuleRoot walks upward from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found in or above %s", dir)
		}
		d = parent
	}
}
