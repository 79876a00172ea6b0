package lint

// The statshygiene analyzer finds state the simulator maintains but
// nothing consumes, and statistics it reports but never produces. It
// audits two sets of fields, both declared in non-test files under
// <module>/internal/:
//
//   - Statistics structs (Module.isStatsStruct: the named types "Stats"
//     and "Metrics") become report columns, so every field is audited
//     both ways. Written but never read: the core spends cycles
//     maintaining a counter no table ever shows — dead weight at best,
//     a stale copy of a real metric at worst. Read but never written: a
//     reporter renders a field nothing ever sets, an always-zero column
//     that looks like data.
//   - Every other unexported field of a named struct is audited for the
//     first failure only: written but never read. Such a field costs a
//     store on every path that maintains it, and its only readers, if
//     any, are tests. Here a field reached through an intermediate
//     selector counts as read (`c.cfg.Width` reads cfg), and so does
//     every field of a struct compared by value, as a map key or with
//     == or !=. Exported fields are exempt: encoding/json, the cell
//     fingerprint's reflection and the root package's type aliases read
//     them without a selector. The read-but-never-written half stays
//     with the statistics structs: appends, element writes and mutex
//     calls are not writes to the field flow, so on plain state it would
//     flag live fields.
//
// Counter-wise plumbing (warmup subtraction — `out.Cycles -= w.Cycles`)
// counts as neither a read nor a write, and reads in test files do not
// count; see fieldflow.go. Serialization of a whole struct
// (encoding/json et al.) does not count as a read: a statistic whose
// only consumer is a JSON dump still needs an allow directive explaining
// who reads that JSON.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

func statsHygiene(m *Module) []Diagnostic {
	stats, state := map[*types.Var]bool{}, map[*types.Var]bool{}
	var fields []*types.Var
	owner := map[*types.Var]string{}
	for _, p := range m.Pkgs {
		if !m.IsInternal(p) {
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
			isStats := m.isStatsStruct(tn)
			for i := 0; i < st.NumFields(); i++ {
				fv := st.Field(i)
				switch {
				case isStats:
					stats[fv] = true
				case !fv.Exported() && fv.Name() != "_":
					state[fv] = true
				default:
					continue
				}
				fields = append(fields, fv)
				owner[fv] = p.Types.Name() + "." + name
			}
		}
	}

	reads := map[*types.Var]int{}
	writes := map[*types.Var]int{}
	for fv := range comparedFields(m) {
		if state[fv] {
			reads[fv]++
		}
	}
	for _, ff := range []*fieldFlow{
		{mod: m, audited: stats},
		{mod: m, audited: state, countInner: true},
	} {
		ff.run()
		for _, u := range ff.uses {
			if u.kind == accRead {
				reads[u.field]++
			} else {
				writes[u.field]++
			}
		}
	}

	var diags []Diagnostic
	for _, fv := range fields {
		r, w := reads[fv], writes[fv]
		var msg string
		switch {
		case state[fv] && r == 0:
			msg = fmt.Sprintf("field %s.%s is never read outside tests (dead state): delete it, with any accessor only tests call", owner[fv], fv.Name())
		case state[fv]:
			continue
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

// comparedFields returns the fields of every struct type that non-test
// code compares by value, as a map key or an operand of == or !=: the
// comparison reads each field.
func comparedFields(m *Module) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	add := func(t types.Type) {
		if t == nil {
			return
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				out[st.Field(i)] = true
			}
		}
	}
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			if m.isTestFile(f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.MapType:
					add(p.Info.TypeOf(n.Key))
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						add(p.Info.TypeOf(n.X))
					}
				}
				return true
			})
		}
	}
	return out
}
