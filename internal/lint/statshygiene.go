package lint

// The statshygiene analyzer cross-references the statistics structs that
// become report columns. A simulator statistic is only meaningful if the
// simulator both produces it (writes it somewhere) and something consumes
// it (a reporter, a derived metric, an error message). The two failure
// modes are exactly the silent-zero bug class PR 1 fixed by hand:
//
//   - written but never read: the core spends cycles maintaining a
//     counter no table ever shows — dead weight at best, a stale copy of
//     a real metric at worst;
//   - read but never written: a reporter renders a field nothing ever
//     sets, producing an always-zero column that looks like data.
//
// Audited structs are the statistics structs (Module.isStatsStruct): the
// named types "Stats" and "Metrics" declared under <module>/internal/,
// the same rule that exempts them from ffsound and flushreset.
// Counter-wise plumbing (warmup subtraction, sample aggregation —
// `out.Cycles -= w.Cycles`) counts as neither a read nor a write; see
// fieldflow.go. Serialization of a whole struct
// (encoding/json et al.) does not count as a read: a field whose only
// consumer is a JSON dump still needs an allow directive explaining who
// reads that JSON.

import (
	"fmt"
	"go/types"
)

func statsHygiene(m *Module) []Diagnostic {
	audited := map[*types.Var]bool{}
	var fields []*types.Var
	owner := map[*types.Var]string{}

	for _, p := range m.Pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !m.isStatsStruct(tn) {
				continue
			}
			st := tn.Type().Underlying().(*types.Struct)
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

	ff := &fieldFlow{mod: m, audited: audited}
	ff.run()

	reads := map[*types.Var]int{}
	writes := map[*types.Var]int{}
	for _, u := range ff.uses {
		if u.kind == accRead {
			reads[u.field]++
		} else {
			writes[u.field]++
		}
	}

	var diags []Diagnostic
	for _, fv := range fields {
		r, w := reads[fv], writes[fv]
		var msg string
		switch {
		case r == 0 && w == 0:
			msg = fmt.Sprintf("field %s.%s is never written and never read", owner[fv], fv.Name())
		case r == 0:
			msg = fmt.Sprintf("field %s.%s is written but never read by any reporter or metric (dead statistic)", owner[fv], fv.Name())
		case w == 0:
			msg = fmt.Sprintf("field %s.%s is read/reported but never written (always-zero column)", owner[fv], fv.Name())
		default:
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:     m.Fset.Position(fv.Pos()),
			Check:   "statshygiene",
			Message: msg,
		})
	}
	return diags
}
