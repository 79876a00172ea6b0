package lint

// The configcoverage analyzer proves that every configuration knob
// declared in internal/config actually reaches the model. The experiment
// matrices sweep config structs and attribute result deltas to the swept
// fields; a field the simulator never reads turns such a sweep into a
// fiction — the figure varies a knob wired to nothing. (The
// heterogeneous-reliability design-space literature this repo follows
// depends on exactly this property: every explored parameter must
// verifiably influence the model.)
//
// A field counts as covered if it is read anywhere in the module outside
// a write context: constructor assignments and composite-literal keys
// are production, not consumption. Unlike statshygiene's audit of
// statistics, interior chain components count (`cfg.Mem.L1Size` covers
// both Mem and L1Size) — coverage asks "does the knob reach the model",
// not "who consumes the final value".

import (
	"fmt"
	"go/types"
	"sort"
)

func configCoverage(m *Module) []Diagnostic {
	audited := map[*types.Var]bool{}
	var fields []*types.Var
	owner := map[*types.Var]string{}

	for _, p := range m.Pkgs {
		if !m.IsConfigPackage(p) {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || m.isTestPos(tn.Pos()) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fv := st.Field(i)
				audited[fv] = true
				fields = append(fields, fv)
				owner[fv] = p.Types.Name() + "." + name
			}
		}
	}
	if len(audited) == 0 {
		return nil
	}

	ff := &fieldFlow{mod: m, audited: audited, countInner: true}
	ff.run()

	reads := map[*types.Var]int{}
	for _, u := range ff.uses {
		if u.kind == accRead {
			reads[u.field]++
		}
	}

	var diags []Diagnostic
	for _, fv := range fields {
		if reads[fv] > 0 {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:   m.Fset.Position(fv.Pos()),
			Check: "configcoverage",
			Message: fmt.Sprintf("config knob %s.%s is never read by the simulator: sweeping it changes nothing (wire it into the model or delete it)",
				owner[fv], fv.Name()),
		})
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos.Offset < diags[j].Pos.Offset })
	return diags
}
