package lint

// Field-access classification shared by statshygiene and configcoverage.
// Both analyzers reason about how struct fields flow through the module:
// which fields are genuinely written (produced), genuinely read
// (consumed), and which accesses are mere plumbing — counter-wise
// copies/subtractions like `out.Cycles -= w.Cycles` that move a field
// between snapshots of the same shape without ever consuming it. Without
// the plumbing rule, a warmup-subtraction helper that touches every field
// would mark the whole struct "read" and the analysis would be blind.

import (
	"go/ast"
	"go/types"
)

// access kinds.
const (
	accRead = iota
	accWrite
)

// fieldUse records one classified access to an audited field.
type fieldUse struct {
	field *types.Var
	kind  int
}

// fieldFlow walks every file of every module package and classifies
// accesses to the audited fields. countInner controls whether interior
// components of a selector chain count as reads, in write targets too:
// statshygiene turns it off for statistics (in `st.Mem.DemandLoads` only
// DemandLoads is consumed) and on for plain state (`c.cfg.Width` and
// `c.mshrs.full++` both reach through a field the code needs),
// configcoverage turns it on (any appearance of a knob on an access path
// means the knob reaches the model).
type fieldFlow struct {
	mod        *Module
	audited    map[*types.Var]bool
	countInner bool
	uses       []fieldUse

	// handled marks selector/ident nodes consumed by write or plumbing
	// classification so the generic read pass skips them.
	handled map[ast.Node]bool
}

// run classifies every access in the module. Test files (present only
// in -tests mode) are out of scope: a test reading a counter does not
// make the counter a reported metric, and a test writing a knob does
// not make the knob covered.
func (ff *fieldFlow) run() {
	ff.handled = map[ast.Node]bool{}
	for _, p := range ff.mod.Pkgs {
		for _, f := range p.Files {
			if ff.mod.isTestFile(f) {
				continue
			}
			ff.file(p, f)
		}
	}
}

func (ff *fieldFlow) file(p *Package, f *ast.File) {
	// First pass: classify write contexts and mark their nodes.
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			ff.assign(p, n)
		case *ast.IncDecStmt:
			if fv, sel := ff.outermostField(p, n.X); fv != nil {
				ff.record(fv, accWrite)
				ff.markChain(sel)
			}
		case *ast.CompositeLit:
			ff.composite(p, n)
		}
		return true
	})
	// Second pass: everything left is a read.
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s := p.Info.Selections[sel]; s != nil && ff.countInner {
			// The embedded fields a promoted selector passes through
			// are interior components too, in write targets as well.
			for _, fv := range pathFields(s.Recv(), s.Index()[:len(s.Index())-1]) {
				if ff.audited[fv] {
					ff.record(fv, accRead)
				}
			}
		}
		if ff.handled[sel] {
			return true
		}
		fv := ff.fieldOf(p, sel)
		if fv == nil {
			return true
		}
		ff.record(fv, accRead)
		if !ff.countInner {
			// The interior of the chain is an access path, not a
			// consumption of the interior fields.
			markInner(sel, ff.handled)
		}
		return true
	})
}

// assign classifies one assignment statement, applying the plumbing rule
// when LHS and RHS move the same audited field.
func (ff *fieldFlow) assign(p *Package, n *ast.AssignStmt) {
	pairwise := len(n.Lhs) == len(n.Rhs)
	for i, lhs := range n.Lhs {
		fv, sel := ff.outermostField(p, lhs)
		if fv == nil {
			continue
		}
		ff.markChain(sel)
		var rhs ast.Expr
		if pairwise {
			rhs = n.Rhs[i]
		}
		if rhs != nil {
			rhsFields, rhsSels := ff.auditedReads(p, rhs)
			if len(rhsFields) > 0 && allSame(rhsFields, fv) {
				// Pure plumbing: the field is moved, neither produced
				// nor consumed. Mark the RHS chains so the read pass
				// skips them.
				for _, s := range rhsSels {
					ff.markChain(s)
				}
				continue
			}
		}
		ff.record(fv, accWrite)
	}
}

// composite records writes for keyed fields of audited struct literals.
func (ff *fieldFlow) composite(p *Package, cl *ast.CompositeLit) {
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		obj, ok := p.Info.Uses[key].(*types.Var)
		if !ok || !obj.IsField() || !ff.audited[obj] {
			continue
		}
		ff.record(obj, accWrite)
		ff.handled[key] = true
	}
}

// auditedReads collects the outermost audited fields read anywhere in
// expr, together with their selector nodes.
func (ff *fieldFlow) auditedReads(p *Package, expr ast.Expr) ([]*types.Var, []*ast.SelectorExpr) {
	var fields []*types.Var
	var sels []*ast.SelectorExpr
	ast.Inspect(expr, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if fv := ff.fieldOf(p, sel); fv != nil {
			fields = append(fields, fv)
			sels = append(sels, sel)
			return false // the chain's interior is an access path
		}
		return true
	})
	return fields, sels
}

// outermostField resolves expr to the outermost audited field it writes
// through: for `s.Mem.PrefetchIssued` that is PrefetchIssued, with the
// interior Mem treated as the access path. Index and star expressions
// are unwrapped (`st.ABC[i]` writes through field ABC), except that when
// interior components count as reads a dereference is an access path
// too: `*o.ptr = v` writes the pointee and reads ptr.
func (ff *fieldFlow) outermostField(p *Package, expr ast.Expr) (*types.Var, *ast.SelectorExpr) {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			if ff.countInner {
				return nil, nil
			}
			expr = e.X
		case *ast.SelectorExpr:
			if fv := ff.fieldOf(p, e); fv != nil {
				return fv, e
			}
			return nil, nil
		default:
			return nil, nil
		}
	}
}

// fieldOf resolves a selector to an audited field, or nil.
func (ff *fieldFlow) fieldOf(p *Package, sel *ast.SelectorExpr) *types.Var {
	s := p.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	fv, ok := s.Obj().(*types.Var)
	if !ok || !ff.audited[fv] {
		return nil
	}
	return fv
}

// markChain marks sel as handled, and the interior of its chain too
// unless interior components count as reads.
func (ff *fieldFlow) markChain(sel *ast.SelectorExpr) {
	if sel == nil {
		return
	}
	ff.handled[sel] = true
	if !ff.countInner {
		markInner(sel, ff.handled)
	}
}

// markInner marks the interior selectors of a chain.
func markInner(sel *ast.SelectorExpr, handled map[ast.Node]bool) {
	for {
		inner, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return
		}
		handled[inner] = true
		sel = inner
	}
}

// record appends one classified use.
func (ff *fieldFlow) record(fv *types.Var, kind int) {
	ff.uses = append(ff.uses, fieldUse{field: fv, kind: kind})
}

// allSame reports whether every field in fields is fv.
func allSame(fields []*types.Var, fv *types.Var) bool {
	for _, f := range fields {
		if f != fv {
			return false
		}
	}
	return true
}

// pathFields returns the struct fields that the field indices in path
// select, one level each, starting from type t.
func pathFields(t types.Type, path []int) []*types.Var {
	var out []*types.Var
	for _, idx := range path {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || idx >= st.NumFields() {
			break
		}
		fv := st.Field(idx)
		out = append(out, fv)
		t = fv.Type()
	}
	return out
}
