package lint

// The skipset analyzer pins the bulk-advance write set. Fast-forwarding
// replaces N iterations of the blocked-cycle path (tickBlocked plus the
// loop bookkeeping) with one n-scaled bulk update, and the byte-identical
// contract demands the two paths touch exactly the same state: a stat
// counter added to the per-cycle path but forgotten in bulkAdvance is a
// silent divergence that today only surfaces if an A/B matrix happens to
// exercise it. The analyzer computes, over the static call graph,
//
//	B = fields written by the bulk-advance closures (skipTo and
//	    bulkAdvance, following helpers like accountBlocked and the
//	    ledger's Advance),
//	T = fields written by the per-cycle blocked path (tickBlocked),
//
// and checks both against the *declared* n-scalable set: every field
// carrying //rarlint:nscaled <reason> on its declaration. Three ways to
// be wrong, each a finding at the field's declaration:
//
//   - a field in B without an nscaled declaration (the bulk path writes
//     state nobody vouched scales linearly),
//   - an nscaled declaration on a field outside B (the declaration rot:
//     the bulk path no longer maintains it),
//   - a field in T but not in B (the forgotten-counter divergence: the
//     per-cycle path advances it, the skip path does not).
//
// Like survives and quiescent, stale or unattached nscaled directives
// are findings in their own right. Unlike ffsound and flushreset,
// skipset audits statistics structs too: a blocked-cycle counter must
// n-scale like any other field.

import (
	"fmt"
)

// skipBulkNames seed the bulk-advance write set B.
var skipBulkNames = map[string]bool{
	"skipTo":      true,
	"bulkAdvance": true,
}

// skipTickNames seed the per-cycle blocked-path write set T.
var skipTickNames = map[string]bool{
	"tickBlocked": true,
}

func skipSet(m *Module) []Diagnostic {
	fi := buildFuncIndex(m)
	bulks, bulkPkgs := seedFuncs(m, fi, skipBulkNames)
	ticks, tickPkgs := seedFuncs(m, fi, skipTickNames)
	if len(bulks) == 0 {
		return nil // no bulk-advance path: nothing to pin
	}

	fe := newFlowEngine(fi)
	bulkW, _, bulkFuncs := fe.closure(bulks)
	tickW := flowSet{}
	if len(ticks) > 0 {
		tickW = fe.writeClosure(ticks)
	}

	// Audited packages: wherever the bulk or per-cycle closures live or
	// reach (the core and the ACE ledger they both advance).
	pkgs := bulkPkgs
	for p := range tickPkgs {
		pkgs[p] = true
	}
	for _, info := range bulkFuncs {
		pkgs[info.pkg] = true
	}
	fields, owner := auditedFields(m, pkgs, true)

	var diags []Diagnostic
	for _, fv := range fields {
		pos := m.Fset.Position(fv.Pos())
		d := m.directiveFor(fv, verbNscaled)
		bulkSite, inBulk := bulkW[fv]
		tickSite, inTick := tickW[fv]
		switch {
		case inBulk && d == nil:
			diags = append(diags, Diagnostic{Pos: pos, Check: "skipset",
				Message: fmt.Sprintf("field %s.%s is written by the bulk-advance closure (by %s) but not declared n-scalable: annotate //rarlint:nscaled <reason> or stop writing it on the skip path",
					owner[fv], fv.Name(), bulkSite.fn)})
		case !inBulk && d != nil:
			diags = append(diags, Diagnostic{Pos: pos, Check: "skipset",
				Message: fmt.Sprintf("stale rarlint:nscaled on %s.%s: the bulk-advance closure does not write the field; remove the annotation",
					owner[fv], fv.Name())})
		}
		if inTick && !inBulk {
			diags = append(diags, Diagnostic{Pos: pos, Check: "skipset",
				Message: fmt.Sprintf("field %s.%s is written by the per-cycle blocked path (by %s) but not by the bulk-advance closure: skipping a stall would silently diverge from ticking through it",
					owner[fv], fv.Name(), tickSite.fn)})
		}
	}
	return diags
}
