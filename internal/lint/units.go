package lint

// The units analyzer runs a dimensional analysis over the simulator's
// statistics, energy and metrics code. Struct fields and functions carry
//
//	//rarlint:unit <expr>
//
// where <expr> is a product/quotient of the base units cycles, insts,
// uops, bits, joules and bytes (plus the derived bitcycles = bits*cycles
// and the dimensionless 1): "cycles", "insts/cycles", "joules/uops".
// Dimensions propagate bottom-up through expressions — selectors of
// annotated fields, calls of annotated functions, conversions,
// multiplication and division — and three rules are enforced:
//
//   - add/sub/compare/% of two *known* mismatched dimensions is an error
//     (cycles + insts is never meaningful);
//   - assigning (including += / -=) a known dimension into a field of a
//     different known dimension is an error;
//   - a function annotated with a unit must return that dimension — this
//     is how the declared ratio sinks (IPC = insts/cycles, EPI =
//     joules/insts, MPKI = uops/insts, AVF = 1) are proven to divide the
//     right numerators by the right denominators.
//
// Untyped constants are unit-polymorphic (cycles+1 is fine) and plain
// local variables are unknown (no intraprocedural inference): the
// analysis only speaks where it can be certain, so every finding is a
// genuine dimensional clash.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// dim is a dimension vector: base-unit name -> exponent.
type dim map[string]int

// baseUnits is the directive vocabulary.
var baseUnits = map[string]dim{
	"cycles":    {"cycles": 1},
	"insts":     {"insts": 1},
	"uops":      {"uops": 1},
	"bits":      {"bits": 1},
	"joules":    {"joules": 1},
	"bytes":     {"bytes": 1},
	"bitcycles": {"bits": 1, "cycles": 1},
}

// parseUnit parses a unit expression: "1", a base unit, or a
// numerator/denominator pair of '*'-separated base units.
func parseUnit(s string) (dim, error) {
	if s == "" {
		return nil, fmt.Errorf("missing unit expression")
	}
	parts := strings.Split(s, "/")
	if len(parts) > 2 {
		return nil, fmt.Errorf("unit %q has more than one '/'", s)
	}
	d := dim{}
	for i, part := range parts {
		sign := 1
		if i == 1 {
			sign = -1
		}
		for _, tok := range strings.Split(part, "*") {
			if tok == "1" {
				continue
			}
			base, ok := baseUnits[tok]
			if !ok {
				return nil, fmt.Errorf("unknown unit %q (have cycles, insts, uops, bits, bitcycles, joules, bytes, 1)", tok)
			}
			for k, v := range base {
				d[k] += sign * v
			}
		}
	}
	return normDim(d), nil
}

// normDim drops zero exponents.
func normDim(d dim) dim {
	for k, v := range d {
		if v == 0 {
			delete(d, k)
		}
	}
	return d
}

// renderDim renders a dimension vector canonically ("1", "cycles",
// "insts/cycles", "bits*cycles").
func renderDim(d dim) string {
	var num, den []string
	var keys []string
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		part := k
		if e := d[k]; e > 1 || e < -1 {
			part = fmt.Sprintf("%s^%d", k, max(e, -e))
		}
		if d[k] > 0 {
			num = append(num, part)
		} else {
			den = append(den, part)
		}
	}
	out := strings.Join(num, "*")
	if out == "" {
		out = "1"
	}
	if len(den) > 0 {
		out += "/" + strings.Join(den, "*")
	}
	return out
}

// sameDim reports dimension equality.
func sameDim(a, b dim) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// dimval is the inferred dimension of an expression: known (with d),
// poly (an untyped-constant-like value that matches any dimension), or
// unknown (the analysis cannot tell; never reported).
type dimval struct {
	known bool
	poly  bool
	d     dim
}

var (
	unknownVal = dimval{}
	polyVal    = dimval{poly: true}
)

func knownVal(d dim) dimval { return dimval{known: true, d: d} }

// unitsAnalysis holds the annotation maps for one run.
type unitsAnalysis struct {
	m          *Module
	fieldUnits map[*types.Var]dim
	funcUnits  map[*types.Func]dim
}

func unitsCheck(m *Module) []Diagnostic {
	a := &unitsAnalysis{
		m:          m,
		fieldUnits: map[*types.Var]dim{},
		funcUnits:  map[*types.Func]dim{},
	}
	a.collect()

	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos: m.Fset.Position(pos), Check: "units",
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			if m.isTestFile(f) {
				continue
			}
			a.checkFile(p, f, report)
		}
	}
	return diags
}

// collect reads the unit directives the loader attached to struct
// fields and function declarations outside test files.
func (a *unitsAnalysis) collect() {
	for obj := range a.m.byObj {
		if a.m.isTestPos(obj.Pos()) {
			continue
		}
		if d := a.m.directiveFor(obj, verbUnit); d != nil {
			u, _ := parseUnit(d.args[0]) // well-formed, so it parses
			switch obj := obj.(type) {
			case *types.Var:
				a.fieldUnits[obj] = u
			case *types.Func:
				a.funcUnits[obj] = u
			}
		}
	}
}

// checkFile enforces the three unit rules over one file.
func (a *unitsAnalysis) checkFile(p *Package, f *ast.File, report func(token.Pos, string, ...any)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			a.checkBinary(p, n, report)
		case *ast.AssignStmt:
			a.checkAssign(p, n, report)
		case *ast.FuncDecl:
			a.checkReturns(p, n, report)
		}
		return true
	})
}

// checkBinary rejects same-dimension operators over mismatched known
// dimensions.
func (a *unitsAnalysis) checkBinary(p *Package, e *ast.BinaryExpr, report func(token.Pos, string, ...any)) {
	var verb string
	switch e.Op {
	case token.ADD:
		verb = "adds %s to %s"
	case token.SUB:
		verb = "subtracts %s from %s"
	case token.REM:
		verb = "mixes %s and %s in %%"
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		verb = "compares %s with %s"
	default:
		return
	}
	l, r := a.dimOf(p, e.X), a.dimOf(p, e.Y)
	if l.known && r.known && !sameDim(l.d, r.d) {
		report(e.OpPos, verb+" (operands of mismatched units)", renderDim(l.d), renderDim(r.d))
	}
}

// checkAssign rejects assigning a known dimension into a target of a
// different known dimension.
func (a *unitsAnalysis) checkAssign(p *Package, n *ast.AssignStmt, report func(token.Pos, string, ...any)) {
	if n.Tok == token.DEFINE || len(n.Lhs) != len(n.Rhs) {
		return
	}
	switch n.Tok {
	case token.ASSIGN, token.ADD_ASSIGN, token.SUB_ASSIGN:
	default:
		return
	}
	for i, lhs := range n.Lhs {
		l, r := a.dimOf(p, lhs), a.dimOf(p, n.Rhs[i])
		if l.known && r.known && !sameDim(l.d, r.d) {
			report(lhs.Pos(), "assigns a %s value into %s, declared //rarlint:unit %s",
				renderDim(r.d), types.ExprString(lhs), renderDim(l.d))
		}
	}
}

// checkReturns enforces a function's declared unit on its return
// statements (single-result functions only; nested function literals
// are out of scope).
func (a *unitsAnalysis) checkReturns(p *Package, fd *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	fn, ok := p.Info.Defs[fd.Name].(*types.Func)
	if !ok || fd.Body == nil {
		return
	}
	declared, ok := a.funcUnits[fn]
	if !ok {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		if got := a.dimOf(p, ret.Results[0]); got.known && !sameDim(got.d, declared) {
			report(ret.Pos(), "returns %s but %s declares //rarlint:unit %s",
				renderDim(got.d), fd.Name.Name, renderDim(declared))
		}
		return true
	})
}

// dimOf infers the dimension of an expression bottom-up.
func (a *unitsAnalysis) dimOf(p *Package, e ast.Expr) dimval {
	e = ast.Unparen(e)
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
		return polyVal // constants are unit-polymorphic
	}
	switch ex := e.(type) {
	case *ast.UnaryExpr:
		if ex.Op == token.ADD || ex.Op == token.SUB || ex.Op == token.XOR {
			return a.dimOf(p, ex.X)
		}
	case *ast.SelectorExpr:
		if s := p.Info.Selections[ex]; s != nil && s.Kind() == types.FieldVal {
			if fv, ok := s.Obj().(*types.Var); ok {
				if d, ok := a.fieldUnits[fv]; ok {
					return knownVal(d)
				}
			}
		}
	case *ast.IndexExpr:
		// An element of an annotated array/slice/map field carries the
		// field's unit.
		return a.dimOf(p, ex.X)
	case *ast.CallExpr:
		if tv, ok := p.Info.Types[ex.Fun]; ok && tv.IsType() && len(ex.Args) == 1 {
			return a.dimOf(p, ex.Args[0]) // conversions preserve dimension
		}
		if fn := calleeFunc(p, ex); fn != nil {
			if d, ok := a.funcUnits[fn]; ok {
				return knownVal(d)
			}
		}
	case *ast.BinaryExpr:
		l, r := a.dimOf(p, ex.X), a.dimOf(p, ex.Y)
		switch ex.Op {
		case token.MUL:
			return combineDims(l, r, 1)
		case token.QUO:
			return combineDims(l, r, -1)
		case token.ADD, token.SUB, token.REM, token.AND, token.OR, token.XOR, token.AND_NOT:
			// Same-dimension operators: any known side names the result
			// (mismatches are reported separately by checkBinary).
			if l.known {
				return l
			}
			if r.known {
				return r
			}
			if l.poly && r.poly {
				return polyVal
			}
		case token.SHL, token.SHR:
			return l // a shift scales the value, not the dimension
		}
	}
	return unknownVal
}

// combineDims multiplies (sign=1) or divides (sign=-1) two inferred
// dimensions. Poly operands act as dimensionless scale factors.
func combineDims(l, r dimval, sign int) dimval {
	if l.poly && r.poly {
		return polyVal
	}
	scale := func(d dim, s int) dim {
		out := dim{}
		for k, v := range d {
			out[k] = s * v
		}
		return out
	}
	switch {
	case l.known && r.known:
		out := scale(l.d, 1)
		for k, v := range r.d {
			out[k] += sign * v
		}
		return knownVal(normDim(out))
	case l.known && r.poly:
		return l
	case l.poly && r.known:
		return knownVal(normDim(scale(r.d, sign)))
	}
	return unknownVal
}
