package lint

// The hotalloc analyzer enforces the zero-steady-state-allocation
// contract of the per-cycle simulation loop: any garbage created per
// cycle turns the "10x the hot loop" throughput work into a GC
// benchmark. Functions carry //rarlint:hot in their doc comment; the
// analyzer closes the set over the static call graph (like purity) and
// rejects every construct that heap-allocates on each execution:
//
//   - make, new, map and slice composite literals, &T{...}
//   - append whose result is not assigned back to its own source slice
//     (a self-append reuses capacity once the warmup has grown it; any
//     other append builds a fresh backing array), and self-appends to a
//     function-local slice declared empty (no capacity to reuse — it
//     allocates on every call)
//   - function literals (closure headers escape)
//   - non-constant string concatenation, []byte/string conversions
//   - boxing a non-pointer concrete value into an interface
//   - storing the address of a local into non-local state (forces the
//     local to the heap)
//   - calls that cannot be proven allocation-free: function values,
//     interface methods, and externals outside a small whitelist
//     (math, math/bits, sync/atomic)
//
// Module functions are followed transitively. An audited cold path —
// warmup growth, error exits, opt-in diagnostics — is cut out of the
// closure with //rarlint:allow hotalloc <reason> on the call line (or
// alone on the line above it, as for any allow): the callee is not
// followed and no finding is reported there. Such barrier allows are
// marked used directly (they suppress traversal, not a diagnostic), so
// they never go stale. Non-call findings (literals, closures, concats)
// are ordinary diagnostics and interact with allow directives the usual
// way.
//
// hotalloc skips _test.go files: tests allocate freely.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// hotExternalPkgs whitelists external packages whose functions do not
// allocate.
var hotExternalPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

func hotalloc(m *Module) []Diagnostic {
	return walkFromRoots(m, verbHot, computeAllocFacts)
}

// computeAllocFacts scans one function body for allocating constructs
// and the module callees to follow.
func computeAllocFacts(fi *funcIndex, info *funcInfo) *walkFacts {
	p, fd := info.pkg, info.decl
	ft := &walkFacts{}
	alloc := func(pos token.Pos, format string, args ...any) {
		ft.ops = append(ft.ops, walkOp{pos: pos, what: fmt.Sprintf(format, args...)})
	}
	calleeSeen := map[*funcInfo]bool{}

	// Local slices declared with no initializer have nil backing storage:
	// even a self-append to them allocates on every call.
	emptyLocals := map[*types.Var]bool{}
	// Appends claimed by a self-assignment check below; any append seen
	// outside that shape allocates a fresh backing array.
	handledAppend := map[*ast.CallExpr]bool{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeclStmt)
		if !ok {
			return true
		}
		gd, ok := ds.Decl.(*ast.GenDecl)
		if !ok {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) > 0 {
				continue
			}
			for _, name := range vs.Names {
				if v, ok := p.Info.Defs[name].(*types.Var); ok {
					if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
						emptyLocals[v] = true
					}
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAllocAssign(p, fd, n, emptyLocals, handledAppend, alloc)
		case *ast.CompositeLit:
			switch p.Info.Types[n].Type.Underlying().(type) {
			case *types.Map:
				alloc(n.Pos(), "allocates a map literal")
			case *types.Slice:
				alloc(n.Pos(), "allocates a slice literal")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					alloc(n.Pos(), "heap-allocates %s", types.ExprString(n))
				}
			}
		case *ast.FuncLit:
			alloc(n.Pos(), "creates a closure")
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := p.Info.Types[n]; ok && tv.Value == nil && isStringType(tv.Type) {
					alloc(n.Pos(), "concatenates strings")
				}
			}
		case *ast.CallExpr:
			classifyAllocCall(fi, info, n, handledAppend, alloc, calleeSeen, &ft.callees)
		}
		return true
	})
	return ft
}

// checkAllocAssign handles the assignment-shaped rules: self-append
// recognition, interface boxing, and address-of-local escapes.
func checkAllocAssign(p *Package, fd *ast.FuncDecl, n *ast.AssignStmt,
	emptyLocals map[*types.Var]bool, handledAppend map[*ast.CallExpr]bool,
	alloc func(token.Pos, string, ...any)) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, rhs := range n.Rhs {
		lhs := n.Lhs[i]
		if call := appendCall(p, rhs); call != nil {
			handledAppend[call] = true
			if len(call.Args) == 0 {
				continue
			}
			src := ast.Unparen(call.Args[0])
			for {
				if se, ok := src.(*ast.SliceExpr); ok {
					src = ast.Unparen(se.X)
					continue
				}
				break
			}
			if types.ExprString(ast.Unparen(lhs)) != types.ExprString(src) {
				alloc(call.Pos(), "append result assigned to %s, not back to %s (allocates a fresh backing array)",
					types.ExprString(lhs), types.ExprString(src))
				continue
			}
			if id, ok := src.(*ast.Ident); ok {
				if v, ok := identVar(p, id); ok && emptyLocals[v] {
					alloc(call.Pos(), "appends to %s, a local slice declared empty (allocates every call)", id.Name)
				}
			}
			continue
		}
		// Boxing: a concrete non-pointer value stored into an interface
		// allocates the interface data word.
		ltv, lok := p.Info.Types[lhs]
		rtv, rok := p.Info.Types[rhs]
		if lok && rok && n.Tok == token.ASSIGN && ltv.Type != nil && rtv.Type != nil {
			if _, isIface := ltv.Type.Underlying().(*types.Interface); isIface &&
				rtv.Value == nil && !rtv.IsNil() && boxAllocates(rtv.Type) {
				alloc(rhs.Pos(), "boxes %s into interface %s", types.ExprString(rhs), ltv.Type)
			}
		}
		// Escape: storing &local into non-local state forces the local to
		// the heap, re-allocating it on every call.
		if ue, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && ue.Op == token.AND {
			if id, ok := ast.Unparen(ue.X).(*ast.Ident); ok {
				if v, ok := identVar(p, id); ok &&
					v.Pos() >= fd.Pos() && v.Pos() <= fd.End() && !localWritable(p, fd, lhs) {
					alloc(ue.Pos(), "stores &%s into %s, forcing the local to the heap",
						id.Name, types.ExprString(lhs))
				}
			}
		}
	}
}

// classifyAllocCall decides what a call means for allocation freedom.
func classifyAllocCall(fi *funcIndex, info *funcInfo,
	call *ast.CallExpr, handledAppend map[*ast.CallExpr]bool,
	alloc func(token.Pos, string, ...any), seen map[*funcInfo]bool, callees *[]*funcInfo) {
	p := info.pkg

	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		checkAllocConversion(p, call, tv.Type, alloc)
		return
	}

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap", "min", "max", "copy", "delete", "clear", "recover",
				"real", "imag", "complex":
				// Allocation-free builtins.
			case "make":
				alloc(call.Pos(), "allocates with make")
			case "new":
				alloc(call.Pos(), "allocates with new")
			case "append":
				if !handledAppend[call] {
					alloc(call.Pos(), "append outside a self-assignment (allocates a fresh backing array)")
				}
			case "panic":
				// panic(constant) reuses the constant; anything else boxes
				// its argument on the way out. Unwinding paths are usually
				// fatal anyway, but the boxing happens before the throw.
				if len(call.Args) == 1 {
					if tv, ok := p.Info.Types[call.Args[0]]; ok && tv.Value == nil && !tv.IsNil() && boxAllocates(tv.Type) {
						alloc(call.Pos(), "panic boxes its non-constant argument")
					}
				}
			default: // print, println, unsafe helpers, ...
				alloc(call.Pos(), "calls builtin %s", id.Name)
			}
			return
		}
	}

	fn := calleeFunc(p, call)
	if fn == nil {
		alloc(call.Pos(), "calls %s, a function value (cannot prove allocation-free)",
			types.ExprString(call.Fun))
		return
	}
	if callee := fi.lookup(fn); callee != nil {
		if fi.mod.allowed("hotalloc", fi.mod.Fset.Position(call.Pos())) {
			return // audited cold path: cut out of the hot closure
		}
		if !seen[callee] {
			seen[callee] = true
			*callees = append(*callees, callee)
		}
		return
	}
	name := funcName(p, fn)
	if fn.Pkg() != nil {
		if hotExternalPkgs[fn.Pkg().Path()] {
			return
		}
		alloc(call.Pos(), "calls %s, which is outside the hotalloc whitelist", name)
		return
	}
	alloc(call.Pos(), "calls interface method %s (cannot prove allocation-free)", name)
}

// checkAllocConversion flags conversions that copy their operand into a
// fresh allocation: string <-> byte/rune slice, and conversion to an
// interface type (boxing).
func checkAllocConversion(p *Package, call *ast.CallExpr, dst types.Type,
	alloc func(token.Pos, string, ...any)) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := p.Info.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return
	}
	src := tv.Type
	_, dstSlice := dst.Underlying().(*types.Slice)
	_, srcSlice := src.Underlying().(*types.Slice)
	switch {
	case isStringType(dst) && srcSlice, dstSlice && isStringType(src):
		alloc(call.Pos(), "allocating conversion %s", types.ExprString(call))
	default:
		if _, isIface := dst.Underlying().(*types.Interface); isIface &&
			tv.Value == nil && !tv.IsNil() && boxAllocates(src) {
			alloc(call.Pos(), "boxes %s into interface %s", types.ExprString(call.Args[0]), dst)
		}
	}
}

// appendCall returns e as a call to the append builtin, or nil.
func appendCall(p *Package, e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	return call
}

// isStringType reports whether t is a string type.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// boxAllocates reports whether storing a value of concrete type t into
// an interface allocates: pointer-shaped types (pointers, channels,
// maps, funcs, unsafe pointers) fit in the interface data word directly.
func boxAllocates(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() != types.UnsafePointer
	}
	return true
}
