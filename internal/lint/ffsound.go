package lint

// The ffsound analyzer statically encodes the fast-forward quiescence
// contract (DESIGN.md §7): skipTo may jump the core over a stall gap
// only because nextEventCycle bounds the skip by the earliest cycle at
// which *anything* can change. That bound is sound only if every piece
// of mutable state the stage machinery can touch is visible to the
// next-event computation — a field the stages write but no next-event
// source reads is state whose pending change could fall inside a skip
// window and silently diverge the fast-forwarded run from the cycle-by-
// cycle one. The analyzer computes, over the static call graph,
//
//	W = fields written by the stage functions' closures
//	    (fetch/dispatch/issue/complete/commit, the mode stage, store
//	    drain, and the runahead enter/exit transitions),
//	R = fields read by the next-event sources' closures
//	    (nextEventCycle and modeNextEvent, following every helper they
//	    consult, e.g. the hierarchy's NextFillAt),
//
// and reports every audited field in W \ R at its declaration. A field
// that genuinely needs no next-event coverage — one whose changes are
// always derived from (and therefore bounded by) covered state, such as
// a value recomputed from covered inputs before use — carries
// //rarlint:quiescent <reason> in its doc or trailing comment. The
// analyzer keeps the waivers honest the same way flushreset keeps
// survives honest: a quiescent annotation on a field that is in fact
// read by a next-event source (or never stage-written) is itself a
// finding, and one on a field outside the audited scope is reported as
// not attached.
//
// Audited scope: fields of named structs declared in a package holding
// a stage seed or a package contributing any function to the next-event
// read closure — on this tree, the core and the memory hierarchy —
// except the statistics structs (Module.isStatsStruct), whose counters
// only record what the stages did and need no waiver at all; a
// branch predictor whose state the next-event logic never consults is
// deliberately out of scope (its divergence is caught dynamically by
// the A/B equivalence tests, and statically it has no quiescence
// obligation because skips never cross a cycle where it acts).

import (
	"fmt"
)

// ffStageNames seed the written set W: everything a busy cycle can
// execute. tickBlocked is deliberately absent — the blocked-cycle path
// is skipset's domain (its writes must n-scale, not be event-covered).
var ffStageNames = map[string]bool{
	"fetchStage":    true,
	"dispatchStage": true,
	"issueStage":    true,
	"completeStage": true,
	"commitStage":   true,
	"modeStage":     true,
	"drainStores":   true,
	"enterRunahead": true,
	"exitRunahead":  true,
}

// ffSourceNames seed the read set R: the next-event computation.
var ffSourceNames = map[string]bool{
	"nextEventCycle": true,
	"modeNextEvent":  true,
}

func ffSound(m *Module) []Diagnostic {
	fi := buildFuncIndex(m)
	stages, stagePkgs := seedFuncs(m, fi, ffStageNames)
	sources, _ := seedFuncs(m, fi, ffSourceNames)
	if len(stages) == 0 || len(sources) == 0 {
		return nil // not a fast-forwarding module: no contract to check
	}

	fe := newFlowEngine(fi)
	written := fe.writeClosure(stages)
	_, read, sourceFuncs := fe.closure(sources)

	// Audited packages: where the stages live plus every package the
	// next-event closure reaches into (the memory hierarchy).
	pkgs := stagePkgs
	for _, info := range sourceFuncs {
		pkgs[info.pkg] = true
	}
	fields, owner := auditedFields(m, pkgs, false)

	var diags []Diagnostic
	for _, fv := range fields {
		pos := m.Fset.Position(fv.Pos())
		q := m.directiveFor(fv, verbQuiescent)
		site, uncovered := written[fv]
		if _, ok := read[fv]; ok {
			uncovered = false
		}
		switch {
		case uncovered && q == nil:
			diags = append(diags, Diagnostic{Pos: pos, Check: "ffsound",
				Message: fmt.Sprintf("field %s.%s is written by the stage closures (by %s) but read by no next-event source: a pending change to it would not bound the fast-forward skip — read it in nextEventCycle/modeNextEvent or annotate //rarlint:quiescent <reason>",
					owner[fv], fv.Name(), site.fn)})
		case !uncovered && q != nil:
			diags = append(diags, Diagnostic{Pos: pos, Check: "ffsound",
				Message: fmt.Sprintf("stale rarlint:quiescent on %s.%s: the field is read by a next-event source (or never written by the stage closures); remove the annotation",
					owner[fv], fv.Name())})
		}
	}
	return diags
}
