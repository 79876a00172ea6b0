// Command rarlint statically enforces three of the simulator's
// correctness contracts: determinism of everything feeding the memoized
// simulation cache, error-return discipline, and guarded-by lock
// discipline (//rarlint:guardedby, //rarlint:locked). It always runs
// every check over the whole module, _test.go files included. Pure
// standard library — go/parser, go/ast, go/types — with no external
// dependencies.
//
// Usage:
//
//	rarlint ./...                         # whole module, all checks (CI mode)
//	rarlint -json ./...                   # schema-stable JSON findings for CI
//	rarlint path/to/module                # another module root (e.g. a corpus)
//
// Exit status: 0 clean, 1 findings, 2 usage or load error. Audited
// exceptions are annotated in place, on the flagged line or alone on
// the line above it:
//
//	start := time.Now() //rarlint:allow determinism host-side timing
//
// guardedby and locked go in the doc or trailing comment of the struct
// field or method they govern.
//
// See README.md ("Static analysis: rarlint") and DESIGN.md §6 and §8
// ("Statically enforced invariants").
package main

import (
	"os"

	"rarsim/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
