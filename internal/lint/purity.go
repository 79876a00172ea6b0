package lint

// The purity analyzer proves the precondition of the stall fast-forward
// (DESIGN.md §7): nextEventCycle and everything it calls must be
// side-effect-free, or the A/B equivalence of skipping quiescent windows
// breaks. Functions carry //rarlint:pure in their doc comment; the
// analyzer closes the set over the static call graph, so a mutation
// added three helpers deep is caught without re-annotating anything.
//
// Inside a pure closure the analyzer rejects every write whose target
// can outlive the call: assignments through pointers, struct fields
// reached through a pointer (including a pointer receiver), slice and
// map element writes, channel sends and closes, map deletes, appends to
// non-local slices, and calls to anything it cannot prove pure — an
// unannotated module function is followed, an external function must be
// on the small whitelist of value-pure standard-library functions, and a
// function value or interface method is rejected outright (its target
// is unknowable statically). Writes to locals — including parameters
// and value receivers, which are copies — are fine: purity here means
// "no observable effect", not "no computation".

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// pureExternalPkgs whitelists external packages every exported function
// of which is value-pure.
var pureExternalPkgs = map[string]bool{
	"math":      true,
	"math/bits": true,
	"strconv":   true,
}

// pureExternalFuncs whitelists individual value-pure external functions.
var pureExternalFuncs = map[string]bool{
	"errors.New":   true,
	"fmt.Sprint":   true,
	"fmt.Sprintf":  true,
	"fmt.Sprintln": true,
}

func purity(m *Module) []Diagnostic {
	return walkFromRoots(m, verbPure, computePurityFacts)
}

// computePurityFacts scans one function body for impure operations and
// resolvable module callees.
func computePurityFacts(fi *funcIndex, info *funcInfo) *walkFacts {
	p, fd := info.pkg, info.decl
	ft := &walkFacts{}
	impure := func(pos token.Pos, format string, args ...any) {
		ft.ops = append(ft.ops, walkOp{pos: pos, what: fmt.Sprintf(format, args...)})
	}
	calleeSeen := map[*funcInfo]bool{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if !localWritable(p, fd, lhs) {
					impure(lhs.Pos(), "assigns to %s", types.ExprString(lhs))
				}
			}
		case *ast.IncDecStmt:
			if !localWritable(p, fd, n.X) {
				impure(n.X.Pos(), "assigns to %s", types.ExprString(n.X))
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, lhs := range []ast.Expr{n.Key, n.Value} {
					if lhs != nil && !localWritable(p, fd, lhs) {
						impure(lhs.Pos(), "assigns to %s", types.ExprString(lhs))
					}
				}
			}
		case *ast.SendStmt:
			impure(n.Pos(), "sends on channel %s", types.ExprString(n.Chan))
		case *ast.CallExpr:
			classifyPureCall(fi, info, n, impure, calleeSeen, &ft.callees)
		}
		return true
	})
	return ft
}

// classifyPureCall decides what a call means for purity: a builtin with
// known semantics, a module function to follow, a whitelisted external,
// or an impure operation.
func classifyPureCall(fi *funcIndex, info *funcInfo, call *ast.CallExpr,
	impure func(token.Pos, string, ...any), seen map[*funcInfo]bool, callees *[]*funcInfo) {
	p, fd := info.pkg, info.decl

	// Type conversions are value operations.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap", "min", "max", "make", "new", "panic", "recover",
				"real", "imag", "complex":
				// Value builtins (panic unwinds, it does not mutate).
			case "append":
				// append may write into the backing array of its first
				// argument; only fresh or function-local slices are safe.
				if len(call.Args) > 0 && !freshOrLocal(p, fd, call.Args[0]) {
					impure(call.Pos(), "appends to non-local slice %s", types.ExprString(call.Args[0]))
				}
			case "delete":
				impure(call.Pos(), "deletes from map %s", types.ExprString(call.Args[0]))
			case "close":
				impure(call.Pos(), "closes channel %s", types.ExprString(call.Args[0]))
			case "clear":
				impure(call.Pos(), "clears %s", types.ExprString(call.Args[0]))
			default: // print, println, unsafe helpers, ...
				impure(call.Pos(), "calls builtin %s", id.Name)
			}
			return
		}
	}

	fn := calleeFunc(p, call)
	if fn == nil {
		impure(call.Pos(), "calls %s, which is not statically resolvable (function value)",
			types.ExprString(call.Fun))
		return
	}
	if callee := fi.lookup(fn); callee != nil {
		if !seen[callee] {
			seen[callee] = true
			*callees = append(*callees, callee)
		}
		return
	}
	name := funcName(p, fn)
	if fn.Pkg() != nil {
		path := fn.Pkg().Path()
		if pureExternalPkgs[path] || pureExternalFuncs[path+"."+fn.Name()] {
			return
		}
		impure(call.Pos(), "calls %s, which is outside the pure whitelist", name)
		return
	}
	// A *types.Func without a package is an interface method or error();
	// its dynamic target is unknowable.
	impure(call.Pos(), "calls %s through an interface, whose dynamic target is not statically pure", name)
}

// localWritable reports whether writing through expr can only touch
// state that dies with this call: a chain of value selections and array
// indexes rooted at a variable declared inside fd (parameters and value
// receivers included — they are copies). Any pointer indirection, slice
// or map element, or variable declared outside fd makes the write
// observable.
func localWritable(p *Package, fd *ast.FuncDecl, expr ast.Expr) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			if e.Name == "_" {
				return true
			}
			v, ok := identVar(p, e)
			if !ok {
				return false
			}
			return v.Pos() >= fd.Pos() && v.Pos() <= fd.End()
		case *ast.SelectorExpr:
			if sel := p.Info.Selections[e]; sel != nil && sel.Indirect() {
				return false // reached through an embedded pointer
			}
			tv, ok := p.Info.Types[e.X]
			if !ok {
				return false // package-qualified global
			}
			if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
				return false
			}
			expr = e.X
		case *ast.IndexExpr:
			tv, ok := p.Info.Types[e.X]
			if !ok {
				return false
			}
			if _, isArr := tv.Type.Underlying().(*types.Array); !isArr {
				return false // slice and map storage is shared
			}
			expr = e.X
		default:
			return false
		}
	}
}

// freshOrLocal reports whether expr denotes storage that cannot be
// shared with the caller: a local variable chain, a fresh composite
// literal, a make/append result, or nil.
func freshOrLocal(p *Package, fd *ast.FuncDecl, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		// make(...) or append(...) results: freshly allocated storage.
		return true
	case *ast.Ident:
		if e.Name == "nil" {
			return true
		}
	}
	return localWritable(p, fd, expr)
}
