package lint

// The flushreset analyzer statically encodes the flush-at-exit un-ACE
// argument: RAR can mark runahead work reliability-free only because
// exitRunahead/doFlush squash every piece of microarchitectural state a
// runahead interval accumulated. The analyzer computes, over the static
// call graph,
//
//	W = fields written by the runahead-mode writer functions' closures,
//	R = fields written by the reset/flush functions' closures,
//
// and reports every field in W \ R at its declaration: state mutated
// during runahead that no exit path restores is exactly the residue the
// contract forbids. Statistics structs (Module.isStatsStruct) are not
// audited: metering runahead activity past exit is what their counters
// are for. Any other field that legitimately outlives runahead exit (a
// consumed-once checkpoint, a poison bit that the next allocation
// clears) carries //rarlint:survives <reason> in its doc or trailing
// comment — and the analyzer keeps those honest too: a survives
// annotation on a field that is in fact restored (or never
// runahead-written) is itself a finding, and one on a field the
// analyzer does not audit is reported as not attached, so waivers
// cannot rot.
//
// Writer and reset functions are matched by name in any module package;
// writes are attributed to the leaf field of the assignment chain
// (`c.chk.rat = x` writes checkpoint.rat, not Core.chk), and assigning a
// whole struct value (`*u = uop{}`, `c.chk = checkpoint{...}`) counts as
// writing every audited field of that struct.

import (
	"fmt"
	"go/types"
)

// resetFuncNames are the reset-shaped functions whose closures define
// the restored set R. Names absent from a module are simply not seeds.
var resetFuncNames = map[string]bool{
	"exitRunahead":    true,
	"doFlush":         true,
	"discardRunahead": true,
	"abortRunahead":   true,
	"squashYounger":   true,
	"clearWrongPath":  true,
	"Reset":           true,
}

// runaheadWriterNames are the functions that only execute on
// runahead-mode paths; their closures define the written set W.
var runaheadWriterNames = map[string]bool{
	"enterRunahead":         true,
	"dispatchRunahead":      true,
	"dropRunahead":          true,
	"drainPRDQ":             true,
	"redirectRunahead":      true,
	"squashRunaheadYounger": true,
}

func flushReset(m *Module) []Diagnostic {
	fi := buildFuncIndex(m)

	// Seeds, in deterministic source order.
	writers, writerPkgs := seedFuncs(m, fi, runaheadWriterNames)
	resets, resetPkgs := seedFuncs(m, fi, resetFuncNames)
	if len(writers) == 0 || len(resets) == 0 {
		return nil // not a runahead module: nothing to diff
	}
	seedPkgs := writerPkgs
	for p := range resetPkgs {
		seedPkgs[p] = true
	}

	// Audited fields: every field of every named struct declared in a
	// package holding a seed function, statistics structs excepted.
	fields, owner := auditedFields(m, seedPkgs)

	fe := newFlowEngine(fi)
	written := fe.writeClosure(writers)
	restored := fe.writeClosure(resets)

	var diags []Diagnostic
	for _, fv := range fields {
		pos := m.Fset.Position(fv.Pos())
		sv := m.directiveFor(fv, verbSurvives)
		site, leaks := written[fv]
		if _, ok := restored[fv]; ok {
			leaks = false
		}
		switch {
		case leaks && sv == nil:
			diags = append(diags, Diagnostic{Pos: pos, Check: "flushreset",
				Message: fmt.Sprintf("field %s.%s is written on runahead paths (by %s) but not restored by any exit/flush function: runahead residue would survive exit — restore it or annotate //rarlint:survives <reason>",
					owner[fv], fv.Name(), site.fn)})
		case !leaks && sv != nil:
			diags = append(diags, Diagnostic{Pos: pos, Check: "flushreset",
				Message: fmt.Sprintf("stale rarlint:survives on %s.%s: the field is restored at runahead exit (or never written on runahead paths); remove the annotation",
					owner[fv], fv.Name())})
		}
	}
	return diags
}

// structFields appends every field of t (recursively, through struct
// and pointer-to-struct types) to out.
func structFields(t types.Type, out []*types.Var) []*types.Var {
	var walk func(t types.Type)
	seen := map[types.Type]bool{}
	walk = func(t types.Type) {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if seen[t] {
			return
		}
		seen[t] = true
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			out = append(out, st.Field(i))
			walk(st.Field(i).Type())
		}
	}
	walk(t)
	return out
}
