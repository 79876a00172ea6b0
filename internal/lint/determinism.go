package lint

// The determinism analyzer guards the soundness condition of the
// memoizing simulation engine (internal/sim/engine.go): a cell's result
// must be a pure function of its content-hashed CellKey. Three bug
// classes break that silently:
//
//   - wall-clock reads (time.Now / time.Since, called or held as a
//     value to call later) leaking into state,
//   - the global math/rand source (process-wide, seeding-order
//     dependent) instead of an explicitly seeded local generator,
//   - iteration over a map feeding results, accumulators or rendered
//     output, whose order varies run to run.
//
// time/rand calls are flagged module-wide (host-side timing is
// legitimate but must be explicitly marked as outside the simulated-state
// boundary with an allow directive); the map-iteration check applies to
// the cache-feeding packages internal/{core,sim,trace,ace,experiments,
// metrics}. Two patterns are recognised as order-independent and exempt:
// writes into a map indexed inside the loop (map storage is unordered
// anyway), and the canonical collect-keys-then-sort idiom — a loop whose
// only escaping writes append into slices that the same function later
// passes to sort or slices (the sort normalises whatever order the map
// produced). Deterministic math/rand constructors (rand.New,
// rand.NewSource, ...) are likewise exempt: they are exactly the
// replacement the check demands.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

func determinism(m *Module) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{
			Pos:     m.Fset.Position(pos),
			Check:   "determinism",
			Message: msg,
		})
	}
	for _, p := range m.Pkgs {
		scoped := m.IsDeterminismScoped(p)
		for _, f := range p.Files {
			called := map[ast.Expr]bool{} // the callee of every call seen so far
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					called[ast.Unparen(n.Fun)] = true
					if msg := nondeterministicCall(p, n); msg != "" {
						report(n.Pos(), msg)
					}
				case *ast.SelectorExpr:
					// Inspect visits a call before its callee, so a
					// selector not yet seen as one is used as a value.
					if fn, ok := p.Info.Uses[n.Sel].(*types.Func); ok && !called[n] && wallClock(fn) {
						report(n.Pos(), fmt.Sprintf("time.%s used as a value: whoever calls it reads the wall clock, which is nondeterministic; keep it outside simulated state (annotate host-side timing with rarlint:allow)", fn.Name()))
					}
				}
				return true
			})
			if !scoped {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if rs, ok := n.(*ast.RangeStmt); ok {
						if msg := mapRangeViolation(p, rs, fd); msg != "" {
							report(rs.Pos(), msg)
						}
					}
					return true
				})
			}
		}
	}
	return diags
}

// nondeterministicCall reports a message if the call reads the wall
// clock or the global math/rand source.
func nondeterministicCall(p *Package, call *ast.CallExpr) string {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if wallClock(fn) {
		return fmt.Sprintf("call to time.%s: wall-clock time is nondeterministic; keep it outside simulated state (annotate host-side timing with rarlint:allow)", fn.Name())
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		// rand.New / rand.NewSource / rand.NewPCG build the explicitly
		// seeded local generator the check asks for: deterministic.
		if strings.HasPrefix(fn.Name(), "New") {
			return ""
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			return fmt.Sprintf("call to package-level %s.%s: the global source is process-wide and seeding-order dependent; use an explicitly seeded local generator (e.g. internal/trace.RNG)", fn.Pkg().Path(), fn.Name())
		}
	}
	return ""
}

// wallClock reports whether fn is time.Now or time.Since.
func wallClock(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "time" && (fn.Name() == "Now" || fn.Name() == "Since")
}

// calleeFunc resolves the called function, if it is a named one.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// mapRangeViolation reports a message if n ranges over a map and its
// body leaks order into surrounding state or output. fd is the
// enclosing top-level function, searched for the sort call that makes
// the collect-then-sort idiom exempt.
func mapRangeViolation(p *Package, n *ast.RangeStmt, fd *ast.FuncDecl) string {
	tv, ok := p.Info.Types[n.X]
	if !ok {
		return ""
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return ""
	}
	if why := orderEscape(p, n, fd); why != "" {
		return "iteration over map " + types.ExprString(n.X) + " " + why +
			"; map order is nondeterministic — iterate over sorted keys"
	}
	return ""
}

// escape is one way a loop body leaks iteration order. collect is
// non-nil for `s = append(s, ...)` self-appends, the candidate
// collect-then-sort pattern.
type escape struct {
	why     string
	collect *types.Var
}

// orderEscape explains how the loop body leaks iteration order, or
// returns "" when the body is order-independent — including the
// collect-keys-then-sort idiom, where every escaping write is a
// self-append into a slice the enclosing function later sorts.
func orderEscape(p *Package, loop *ast.RangeStmt, fd *ast.FuncDecl) string {
	var escapes []escape
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if !outerWrite(p, loop, lhs) {
					continue
				}
				escapes = append(escapes, escape{
					why:     "writes " + types.ExprString(lhs) + " declared outside the loop",
					collect: appendToSelf(p, n, i),
				})
			}
		case *ast.IncDecStmt:
			if outerWrite(p, loop, n.X) {
				escapes = append(escapes, escape{why: "writes " + types.ExprString(n.X) + " declared outside the loop"})
			}
		case *ast.CallExpr:
			if name := outputCall(p, n); name != "" {
				escapes = append(escapes, escape{why: "emits output via " + name})
			}
		}
		return true
	})
	if len(escapes) == 0 {
		return ""
	}
	for _, e := range escapes {
		if e.collect == nil || !sortedAfter(p, fd, loop, e.collect) {
			return e.why
		}
	}
	return ""
}

// appendToSelf returns the slice variable when the i-th assignment pair
// is `s = append(s, ...)`, nil otherwise.
func appendToSelf(p *Package, n *ast.AssignStmt, i int) *types.Var {
	if len(n.Lhs) != len(n.Rhs) {
		return nil
	}
	lhs, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := identVar(p, lhs)
	if !ok {
		return nil
	}
	call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if _, isBuiltin := p.Info.Uses[fun].(*types.Builtin); !isBuiltin || fun.Name != "append" {
		return nil
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	if av, ok := identVar(p, arg); !ok || av != v {
		return nil
	}
	return v
}

// sortedAfter reports whether the enclosing function passes v to a
// sort/slices call positioned after the loop: the sort erases whatever
// order the map iteration produced.
func sortedAfter(p *Package, fd *ast.FuncDecl, loop *ast.RangeStmt, v *types.Var) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= loop.End() || found {
			return !found
		}
		fn := calleeFunc(p, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if av, ok := identVar(p, id); ok && av == v {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// identVar resolves an identifier to the variable it names.
func identVar(p *Package, id *ast.Ident) (*types.Var, bool) {
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	return v, ok
}

// outerWrite reports whether lhs writes through a variable declared
// outside the loop. Writes into maps are exempt (unordered storage).
func outerWrite(p *Package, loop *ast.RangeStmt, lhs ast.Expr) bool {
	expr := ast.Unparen(lhs)
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			if tv, ok := p.Info.Types[e.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					return false
				}
			}
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			if e.Name == "_" {
				return false
			}
			v, ok := identVar(p, e)
			if !ok {
				return false
			}
			return v.Pos() < loop.Pos() || v.Pos() > loop.End()
		default:
			return false
		}
	}
}

// outputCall reports the name of an order-sensitive output call: fmt
// printers and Write/Add-style sink methods.
func outputCall(p *Package, call *ast.CallExpr) string {
	fn := calleeFunc(p, call)
	if fn == nil {
		return ""
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + fn.Name()
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune", "AddRow":
			return fn.Name()
		}
	}
	return ""
}
