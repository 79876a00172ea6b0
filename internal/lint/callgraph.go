package lint

// A module-wide function index, static call resolution, and the
// root-to-callee walk purity and hotalloc share. The analyzers reason
// transitively: purity must catch a mutation added three calls below a
// //rarlint:pure root, and flushreset must credit a restore performed by
// a helper of exitRunahead.
// The index maps every function and method *declared in the module* (test
// files excluded) to its declaration, so a resolved static callee can be
// followed into its body; calls that cannot be resolved statically
// (function values, interface methods) resolve to nil and each analyzer
// decides how conservative to be about them.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// funcInfo is one module-declared function or method.
type funcInfo struct {
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl
}

// funcIndex maps declared functions to their bodies across the module.
type funcIndex struct {
	mod   *Module
	decls map[*types.Func]*funcInfo
}

// buildFuncIndex indexes every function declared in a non-test file of
// the module.
func buildFuncIndex(m *Module) *funcIndex {
	fi := &funcIndex{mod: m, decls: map[*types.Func]*funcInfo{}}
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			if m.isTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					fi.decls[fn] = &funcInfo{fn: fn, pkg: p, decl: fd}
				}
			}
		}
	}
	return fi
}

// lookup returns the module declaration of fn, or nil when fn is
// external, interface-abstract, or declared in a test file.
func (fi *funcIndex) lookup(fn *types.Func) *funcInfo {
	if fn == nil {
		return nil
	}
	return fi.decls[fn]
}

// referencedFuncs returns, in source order, every module function the body
// of info's function can transfer control to: direct static callees plus
// functions and methods referenced as *values* — a method value stored in
// a variable or passed as an argument escapes the static call graph, so a
// conservative closure must assume it runs. The two sets overlap on plain
// calls; the result is deduplicated.
func (fi *funcIndex) referencedFuncs(info *funcInfo) []*funcInfo {
	var out []*funcInfo
	seen := map[*funcInfo]bool{}
	add := func(fn *types.Func) {
		if callee := fi.lookup(fn); callee != nil && !seen[callee] {
			seen[callee] = true
			out = append(out, callee)
		}
	}
	ast.Inspect(info.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			add(calleeFunc(info.pkg, n))
		case *ast.SelectorExpr:
			// Method values: x.M used as a value (the call case above
			// resolves x.M() too; dedup makes the overlap harmless).
			if s := info.pkg.Info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
				if fn, ok := s.Obj().(*types.Func); ok {
					add(fn)
				}
			} else if fn, ok := info.pkg.Info.Uses[n.Sel].(*types.Func); ok {
				add(fn)
			}
		case *ast.Ident:
			if fn, ok := info.pkg.Info.Uses[n].(*types.Func); ok {
				add(fn)
			}
		}
		return true
	})
	return out
}

// funcName renders a function's name for diagnostics: "Type.Method" for
// methods, plain name otherwise, qualified with the package name when it
// is not the one the diagnostic is reported from.
func funcName(from *Package, fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil && (from == nil || fn.Pkg() != from.Types) {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// walkOp is one operation a root-to-callee walk rejects.
type walkOp struct {
	pos  token.Pos
	what string
}

// walkFacts is one function's share of a root-to-callee walk: the
// operations it performs that the check rejects, and the module callees
// to follow.
type walkFacts struct {
	ops     []walkOp
	callees []*funcInfo
}

// walkFromRoots closes every function carrying a verb directive (pure or
// hot) over the static call graph and reports each operation facts
// rejects in the closure once, under the verb's check and naming the
// first root that reaches it. Test files hold no roots.
func walkFromRoots(m *Module, verb string, facts func(*funcIndex, *funcInfo) *walkFacts) []Diagnostic {
	fi := buildFuncIndex(m)
	var roots []*funcInfo
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			if m.isTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil || m.directiveFor(fn, verb) == nil {
					continue
				}
				if info := fi.lookup(fn); info != nil {
					roots = append(roots, info)
				}
			}
		}
	}

	var diags []Diagnostic
	cache := map[*funcInfo]*walkFacts{}
	reported := map[walkOp]bool{}
	for _, root := range roots {
		rootName := funcName(root.pkg, root.fn)
		visited := map[*funcInfo]bool{root: true}
		for queue := []*funcInfo{root}; len(queue) > 0; queue = queue[1:] {
			info := queue[0]
			ft := cache[info]
			if ft == nil {
				ft = facts(fi, info)
				cache[info] = ft
			}
			for _, op := range ft.ops {
				if reported[op] {
					continue
				}
				reported[op] = true
				msg := fmt.Sprintf("//rarlint:%s function %s %s", verb, rootName, op.what)
				if info != root {
					msg = fmt.Sprintf("function %s %s, reachable from //rarlint:%s %s",
						funcName(info.pkg, info.fn), op.what, verb, rootName)
				}
				diags = append(diags, Diagnostic{
					Pos: m.Fset.Position(op.pos), Check: verbs[verb].check, Message: msg,
				})
			}
			for _, callee := range ft.callees {
				if !visited[callee] {
					visited[callee] = true
					queue = append(queue, callee)
				}
			}
		}
	}
	return diags
}
