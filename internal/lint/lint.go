// Package lint implements rarlint, a repo-specific static analyzer that
// enforces three of the simulator's correctness contracts: determinism
// of everything feeding the memoized simulation cache, error-return
// discipline in the simulator packages, and guarded-by lock discipline
// of the concurrent engine front-end. Two more contracts rest on the
// results gate (TestFigureCells in internal/experiments) instead: a
// report column that is always zero or dropped, and an ablation knob
// wired to nothing, move its pinned cells or CSVs (DESIGN.md §8).
//
// The analyses are whole-module: rarlint loads and type-checks every
// package of the module, _test.go files included, with go/parser and
// go/types (standard library only — no external dependencies), then
// runs each analyzer over the typed ASTs. Findings carry
// file:line:column positions; the source tree talks back through
// //rarlint: directives —
//
//	//rarlint:allow <check> <reason>     suppress one audited finding
//	//rarlint:guardedby <mu|atomic|init> declare a field's synchronization story
//	//rarlint:locked <mu>                a method called only with mu held
//
// An allow sits on the flagged line, or alone on the line above it; the
// other two sit in the doc or trailing comment of the struct field or
// method they govern, and the loader resolves each once to that
// declaration's types.Object (see directive.go). Malformed and stale
// directives are themselves findings. rarlint
// complements the *runtime* invariant auditor in internal/core/audit.go:
// the auditor checks microarchitectural state while a simulation runs,
// rarlint proves source-level contracts before anything runs at all.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Check names the analyzer that produced it.
	Check string
	// Message describes the violation.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// An Analyzer is one named check over a loaded module.
type Analyzer struct {
	// Name is the check name used in findings and in allow directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run reports the analyzer's findings on the module.
	Run func(m *Module) []Diagnostic
}

// Analyzers returns every rarlint check, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		{
			Name: "determinism",
			Doc:  "wall-clock, global math/rand and order-dependent map iteration in cache-feeding simulator packages",
			Run:  determinism,
		},
		{
			Name: "errdiscipline",
			Doc:  "discarded error returns in internal packages, their tests included",
			Run:  errDiscipline,
		},
		{
			Name: "lockcheck",
			Doc:  "guarded-by discipline of //rarlint:guardedby fields: mutex held at every access, no double lock, no return-while-held",
			Run:  lockcheck,
		},
	}
}

// AnalyzerNames returns the names of every check.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Run loads nothing itself: it runs the named checks (all of them when
// checks is empty) over an already loaded module, applies //rarlint:allow
// suppressions, and returns the surviving findings sorted by position.
func Run(m *Module, checks []string) ([]Diagnostic, error) {
	all := Analyzers()
	ran := map[string]bool{}
	for _, c := range checks {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		if !knownCheck(c) {
			return nil, fmt.Errorf("lint: unknown check %q (have %s)", c, strings.Join(AnalyzerNames(), ", "))
		}
		ran[c] = true
	}
	if len(ran) == 0 {
		for _, a := range all {
			ran[a.Name] = true
		}
	}

	// The analyzers are independent and run concurrently: each consumes
	// the shared read-only typed ASTs and directive index (token.FileSet
	// is internally synchronized), and the only thing they write outside
	// their own results is a directive's used mark — guardedby and locked
	// are consumed by lockcheck alone, and allows are marked only by
	// suppression, after the barrier.
	// Suppression and the directive findings stay sequential, after the
	// barrier. Findings are collected per-analyzer and ordering is
	// restored by the final position sort, so the output is deterministic
	// regardless of scheduling.
	results := make([][]Diagnostic, len(all))
	var wg sync.WaitGroup
	for i, a := range all {
		if !ran[a.Name] {
			continue
		}
		wg.Add(1)
		go func(i int, a *Analyzer) {
			defer wg.Done()
			results[i] = a.Run(m)
		}(i, a)
	}
	wg.Wait()
	var diags []Diagnostic
	for _, r := range results {
		diags = append(diags, r...)
	}
	diags = append(m.suppress(diags), m.directiveFindings(ran)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// knownCheck reports whether name is a registered analyzer.
func knownCheck(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}
