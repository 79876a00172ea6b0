package lint

// The lockcheck analyzer enforces the guarded-by discipline the
// concurrent engine front-end (sim.Engine, the disk store, serve's
// latency ring) depends on. Fields carry //rarlint:guardedby <arg> where
// arg is one of:
//
//   - the name of a sibling sync.Mutex/RWMutex field: every read or
//     write of the guarded field must happen while that mutex is
//     statically held;
//   - atomic: the field's type must come from sync/atomic, whose methods
//     are safe by construction (no further flow checking);
//   - init: the field is set before the struct is shared and never
//     mutated after (documented, not flow-checked).
//
// Mutex holding is tracked intra-procedurally and path-sensitively over
// Lock/RLock/Unlock/RUnlock and defer-Unlock: branch states merge by
// intersection (held only if held on every surviving path), loop bodies
// are analyzed from their pre-state, and function literals start with an
// empty lock state (they may run on another goroutine or after the
// caller returned). Helpers that are only ever called under the lock
// carry //rarlint:locked <mu> on their declaration: they are analyzed
// with the receiver's mutex held, and every call site is checked to
// actually hold it. Acquiring a held sync.Mutex (double lock, a
// guaranteed deadlock) and returning with a mutex held (minus deferred
// unlocks and the //rarlint:locked entry contract) are also reported.
//
// Completeness closes the loop: in any struct that has a mutex field,
// every other field must carry a guardedby annotation, so new state
// cannot be added to a concurrent struct without declaring its
// synchronization story. Constructor idiom is recognized — a local
// freshly created from a composite literal is not yet shared, so its
// fields may be touched lock-free.
//
// lockcheck skips _test.go files: tests exercise structs single-threaded
// and under the race detector.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// guardKind classifies a //rarlint:guardedby argument.
type guardKind int

const (
	guardMutex  guardKind = iota // protected by a named sibling mutex
	guardAtomic                  // a sync/atomic value
	guardInit                    // set before the struct is shared
)

// guardInfo is the resolved annotation of one guarded field.
type guardInfo struct {
	kind guardKind
	mu   string // sibling mutex field name, for guardMutex
}

// lockAnalysis holds the module-wide annotation maps for one run.
type lockAnalysis struct {
	m      *Module
	guards map[*types.Var]*guardInfo
	locked map[*types.Func]string // //rarlint:locked contracts: method -> mutex field
}

func lockcheck(m *Module) []Diagnostic {
	a := &lockAnalysis{
		m:      m,
		guards: map[*types.Var]*guardInfo{},
		locked: map[*types.Func]string{},
	}
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos: m.Fset.Position(pos), Check: "lockcheck",
			Message: fmt.Sprintf(format, args...),
		})
	}

	a.collect(report)

	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			if m.isTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					a.checkFunc(p, fd, report)
				}
			}
		}
	}
	return diags
}

// collect reads the guardedby directives the loader attached to struct
// fields and the locked contracts attached to methods, validates both
// against the actual struct shapes, and enforces completeness: a struct
// with a mutex field must annotate every other field.
func (a *lockAnalysis) collect(report func(token.Pos, string, ...any)) {
	type fieldDecl struct {
		pos     token.Pos
		names   []string
		vars    []*types.Var
		isMutex bool
		atomic  bool
	}
	for _, p := range a.m.Pkgs {
		for _, f := range p.Files {
			if a.m.isTestFile(f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok {
						return true
					}
					var fields []fieldDecl
					mutexNames := map[string]bool{}
					for _, fld := range st.Fields.List {
						d := fieldDecl{pos: fld.Pos()}
						for _, name := range fld.Names {
							if v, ok := p.Info.Defs[name].(*types.Var); ok {
								d.names = append(d.names, name.Name)
								d.vars = append(d.vars, v)
							}
						}
						if len(d.vars) == 0 {
							continue // embedded fields carry no annotation
						}
						d.isMutex = isMutexType(d.vars[0].Type())
						d.atomic = isAtomicType(d.vars[0].Type())
						if d.isMutex {
							for _, name := range d.names {
								mutexNames[name] = true
							}
						}
						fields = append(fields, d)
					}
					for _, fld := range fields {
						if g := a.m.directiveFor(fld.vars[0], verbGuardedBy); g != nil {
							a.attachGuard(n.Name.Name, fld.pos, fld.vars, g.args[0], fld.atomic, mutexNames, report)
						} else if len(mutexNames) > 0 && !fld.isMutex {
							report(fld.pos, "field %s of mutex-guarded struct %s has no //rarlint:guardedby annotation",
								fld.names[0], n.Name.Name)
						}
					}
				case *ast.FuncDecl:
					fn, _ := p.Info.Defs[n.Name].(*types.Func)
					if fn == nil {
						return true
					}
					d := a.m.directiveFor(fn, verbLocked)
					if d == nil {
						return true
					}
					mu := d.args[0]
					if !recvHasMutexField(fn, mu) {
						report(n.Pos(), "rarlint:locked %s: the receiver of %s has no sync.Mutex/RWMutex field named %s",
							mu, n.Name.Name, mu)
						return true
					}
					a.locked[fn] = mu
				}
				return true
			})
		}
	}
}

// attachGuard validates one guardedby annotation against its field and
// records it.
func (a *lockAnalysis) attachGuard(structName string, pos token.Pos, vars []*types.Var,
	arg string, atomicField bool, mutexNames map[string]bool, report func(token.Pos, string, ...any)) {
	var gi *guardInfo
	switch {
	case arg == "atomic":
		if !atomicField {
			report(pos, "rarlint:guardedby atomic on %s.%s, whose type %s is not from sync/atomic",
				structName, vars[0].Name(), vars[0].Type())
			return
		}
		gi = &guardInfo{kind: guardAtomic}
	case arg == "init":
		gi = &guardInfo{kind: guardInit}
	case mutexNames[arg]:
		gi = &guardInfo{kind: guardMutex, mu: arg}
	default:
		report(pos, "rarlint:guardedby %s: struct %s has no sync.Mutex/RWMutex field named %s",
			arg, structName, arg)
		return
	}
	for _, v := range vars {
		a.guards[v] = gi
	}
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// isAtomicType reports whether t is declared in sync/atomic.
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// recvHasMutexField reports whether fn's receiver base struct has a
// mutex field with the given name.
func recvHasMutexField(fn *types.Func, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == name && isMutexType(f.Type()) {
			return true
		}
	}
	return false
}

// lockState is the set of mutexes held at a program point, keyed by the
// source expression of the mutex ("e.mu", "s.mu"), plus the set of
// mutexes with a registered deferred unlock.
type lockState struct {
	held     map[string]bool
	deferred map[string]bool
}

func newLockState() *lockState {
	return &lockState{held: map[string]bool{}, deferred: map[string]bool{}}
}

func (s *lockState) clone() *lockState {
	c := newLockState()
	for k := range s.held {
		c.held[k] = true
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

// mergeInto intersects other into s: a fact survives a merge only if it
// holds on every surviving path.
func (s *lockState) mergeInto(other *lockState) {
	for k := range s.held {
		if !other.held[k] {
			delete(s.held, k)
		}
	}
	for k := range s.deferred {
		if !other.deferred[k] {
			delete(s.deferred, k)
		}
	}
}

// lockOp is one Lock/Unlock-family call found while scanning an
// expression; ops apply to the state after the scan, so accesses in the
// same statement are checked against the pre-call state.
type lockOp struct {
	key     string
	acquire bool
	write   bool // Lock (vs RLock); double-acquiring a write lock deadlocks
	pos     token.Pos
}

// lockWalker runs the path-sensitive analysis over one function body.
type lockWalker struct {
	a      *lockAnalysis
	p      *Package
	fresh  map[*types.Var]bool // locals freshly built from composite literals
	entry  map[string]bool     // held at entry via //rarlint:locked
	report func(token.Pos, string, ...any)
	lits   []*ast.FuncLit
}

// checkFunc analyzes one function declaration, then every function
// literal found inside it (each with an empty lock state: a literal may
// run on another goroutine or after the caller returned).
func (a *lockAnalysis) checkFunc(p *Package, fd *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	w := &lockWalker{a: a, p: p, entry: map[string]bool{}, report: report}
	w.fresh = freshLocals(p, fd.Body)
	st := newLockState()
	if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
		if mu, ok := a.locked[fn]; ok && fd.Recv != nil && len(fd.Recv.List[0].Names) > 0 {
			key := fd.Recv.List[0].Names[0].Name + "." + mu
			st.held[key] = true
			w.entry[key] = true
		}
	}
	w.stmt(fd.Body, st)
	for len(w.lits) > 0 {
		lit := w.lits[0]
		w.lits = w.lits[1:]
		lw := &lockWalker{a: a, p: p, entry: map[string]bool{}, report: report}
		lw.fresh = freshLocals(p, lit.Body)
		lw.stmt(lit.Body, newLockState())
		w.lits = append(w.lits, lw.lits...)
	}
}

// freshLocals collects local variables defined directly from a composite
// literal (`s := &diskStore{...}`): until such a value is published its
// fields are private to the constructor and need no lock.
func freshLocals(p *Package, body ast.Node) map[*types.Var]bool {
	fresh := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			rhs := ast.Unparen(as.Rhs[i])
			if ue, ok := rhs.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				rhs = ast.Unparen(ue.X)
			}
			if _, ok := rhs.(*ast.CompositeLit); !ok {
				continue
			}
			if v, ok := p.Info.Defs[id].(*types.Var); ok {
				fresh[v] = true
			}
		}
		return true
	})
	return fresh
}

// stmt analyzes one statement, mutating st in place; the return value
// reports whether the path terminated (return/break/continue/goto), so
// callers exclude it from merges.
func (w *lockWalker) stmt(s ast.Stmt, st *lockState) bool {
	switch n := s.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		for _, sub := range n.List {
			if w.stmt(sub, st) {
				return true
			}
		}
	case *ast.ExprStmt:
		w.scan(n.X, st, true)
	case *ast.SendStmt:
		w.scan(n.Chan, st, true)
		w.scan(n.Value, st, true)
	case *ast.IncDecStmt:
		w.scan(n.X, st, true)
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			w.scan(e, st, true)
		}
		for _, e := range n.Lhs {
			w.scan(e, st, true)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.scan(e, st, true)
					}
				}
			}
		}
	case *ast.DeferStmt:
		if key, release := unlockCallKey(w.p, n.Call); release {
			st.deferred[key] = true
			return false
		}
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			w.lits = append(w.lits, lit)
		} else {
			// The deferred call runs at return time with unknowable lock
			// state; only its arguments are evaluated now.
			w.scan(n.Call.Fun, st, false)
		}
		for _, arg := range n.Call.Args {
			w.scan(arg, st, true)
		}
	case *ast.GoStmt:
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			w.lits = append(w.lits, lit)
		} else {
			w.scan(n.Call.Fun, st, false)
		}
		for _, arg := range n.Call.Args {
			w.scan(arg, st, true)
		}
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			w.scan(e, st, true)
		}
		for key := range st.held {
			if !st.deferred[key] && !w.entry[key] {
				w.report(n.Pos(), "returns with %s held", key)
			}
		}
		return true
	case *ast.IfStmt:
		w.stmt(n.Init, st)
		w.scan(n.Cond, st, true)
		thenSt := st.clone()
		thenTerm := w.stmt(n.Body, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if n.Else != nil {
			elseTerm = w.stmt(n.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			thenSt.mergeInto(elseSt)
			*st = *thenSt
		}
	case *ast.ForStmt:
		w.stmt(n.Init, st)
		w.scan(n.Cond, st, true)
		// The body is analyzed once from the pre-state; the post-loop
		// state is the pre-state (zero-iteration path).
		body := st.clone()
		w.stmt(n.Body, body)
		w.stmt(n.Post, body)
	case *ast.RangeStmt:
		w.scan(n.X, st, true)
		body := st.clone()
		w.stmt(n.Body, body)
	case *ast.SwitchStmt:
		w.stmt(n.Init, st)
		w.scan(n.Tag, st, true)
		w.caseMerge(n.Body, st, false)
	case *ast.TypeSwitchStmt:
		w.stmt(n.Init, st)
		w.stmt(n.Assign, st)
		w.caseMerge(n.Body, st, false)
	case *ast.SelectStmt:
		w.caseMerge(n.Body, st, true)
	case *ast.BranchStmt:
		return true
	case *ast.LabeledStmt:
		return w.stmt(n.Stmt, st)
	}
	return false
}

// caseMerge analyzes a switch/select body: each clause runs from a clone
// of the incoming state and the surviving states intersect. A switch
// without a default can fall through untouched, so the pre-state joins
// the merge; a select always executes one of its clauses.
func (w *lockWalker) caseMerge(body *ast.BlockStmt, st *lockState, isSelect bool) {
	var survivors []*lockState
	hasDefault := false
	for _, clause := range body.List {
		arm := st.clone()
		term := false
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				w.scan(e, st, true)
			}
			for _, sub := range c.Body {
				if term = w.stmt(sub, arm); term {
					break
				}
			}
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			term = w.stmt(c.Comm, arm)
			for _, sub := range c.Body {
				if term {
					break
				}
				term = w.stmt(sub, arm)
			}
		}
		if !term {
			survivors = append(survivors, arm)
		}
	}
	if !isSelect && !hasDefault {
		survivors = append(survivors, st.clone())
	}
	if len(survivors) == 0 {
		return // every arm terminated; the post-state is unreachable
	}
	merged := survivors[0]
	for _, s := range survivors[1:] {
		merged.mergeInto(s)
	}
	*st = *merged
}

// scan inspects one expression: guarded-field accesses are checked
// against st, locked-contract call sites are verified, function literals
// are queued for empty-state analysis, and Lock/Unlock-family calls are
// collected and — when apply is set — applied to st afterwards.
func (w *lockWalker) scan(e ast.Expr, st *lockState, apply bool) {
	if e == nil {
		return
	}
	var ops []lockOp
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.lits = append(w.lits, n)
			return false
		case *ast.CallExpr:
			if op, ok := mutexOp(w.p, n); ok {
				if op.acquire && op.write && st.held[op.key] {
					w.report(op.pos, "locks %s twice (guaranteed deadlock)", op.key)
				}
				ops = append(ops, op)
				for _, arg := range n.Args {
					w.scan(arg, st, apply)
				}
				return false
			}
			w.checkLockedCall(n, st)
			return true
		case *ast.SelectorExpr:
			w.checkAccess(n, st)
			return true
		}
		return true
	})
	if !apply {
		return
	}
	for _, op := range ops {
		if op.acquire {
			st.held[op.key] = true
		} else {
			delete(st.held, op.key)
		}
	}
}

// checkAccess reports a read or write of a mutex-guarded field while its
// mutex is not statically held.
func (w *lockWalker) checkAccess(sel *ast.SelectorExpr, st *lockState) {
	v, ok := w.p.Info.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	g := w.a.guards[v]
	if g == nil || g.kind != guardMutex {
		return
	}
	base := ast.Unparen(sel.X)
	if w.isFresh(base) {
		return
	}
	key := types.ExprString(base) + "." + g.mu
	if st.held[key] {
		return
	}
	w.report(sel.Sel.Pos(), "accesses %s without holding %s (//rarlint:guardedby %s)",
		types.ExprString(sel), key, g.mu)
}

// checkLockedCall verifies a call to a //rarlint:locked method actually
// holds the receiver's mutex.
func (w *lockWalker) checkLockedCall(call *ast.CallExpr, st *lockState) {
	fn := calleeFunc(w.p, call)
	if fn == nil {
		return
	}
	mu, ok := w.a.locked[fn]
	if !ok {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return // method expression/value: receiver unknown here
	}
	base := ast.Unparen(sel.X)
	if w.isFresh(base) {
		return
	}
	key := types.ExprString(base) + "." + mu
	if st.held[key] {
		return
	}
	w.report(call.Pos(), "calls %s without holding %s (//rarlint:locked %s)",
		funcName(w.p, fn), key, mu)
}

// isFresh reports whether expr is rooted at a constructor-fresh local.
func (w *lockWalker) isFresh(expr ast.Expr) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			v, ok := identVar(w.p, e)
			return ok && w.fresh[v]
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return false
		}
	}
}

// mutexOp recognizes a call to a sync mutex's Lock/RLock/Unlock/RUnlock
// method and derives the lock-state key from the receiver expression.
// TryLock/TryRLock are ignored: their acquisition is conditional on the
// return value, which this analysis does not model.
func mutexOp(p *Package, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var acquire, write bool
	switch sel.Sel.Name {
	case "Lock":
		acquire, write = true, true
	case "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return lockOp{}, false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	return lockOp{
		key:     types.ExprString(ast.Unparen(sel.X)),
		acquire: acquire,
		write:   write,
		pos:     call.Pos(),
	}, true
}

// unlockCallKey recognizes `x.mu.Unlock()` (for defer registration) and
// returns its lock-state key.
func unlockCallKey(p *Package, call *ast.CallExpr) (string, bool) {
	op, ok := mutexOp(p, call)
	if !ok || op.acquire {
		return "", false
	}
	return op.key, true
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
	if fn.Pkg() != nil && fn.Pkg() != from.Types {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}
