// Package lockcheck enforces the store's locking contract over structs
// with //repro:guarded-by annotations (see repro/tools/analyzers/guard):
//
//  1. A function reaching a guarded field through a receiver or
//     parameter must hold the guard mutex at that point. Exported
//     methods must lock; unexported helpers may instead document the
//     caller-holds-the-lock contract by taking the *Locked name suffix.
//  2. *Locked helpers run with the lock already held, so they must not
//     Lock/RLock/Unlock/RUnlock the guard mutex themselves (sync.RWMutex
//     is not reentrant) and must not call a locking method.
//  3. Calling a *Locked helper requires the lock to be held at the call
//     site; calling a locking (public) method while the lock is held is
//     a guaranteed self-deadlock.
//  4. A manually paired Lock/Unlock must not leak across an early
//     return: returning while the mutex is held without a deferred
//     unlock is flagged.
//
// The pass tracks lock state linearly through each function body,
// following if/for/switch structure; function literals are analyzed with
// the state at their definition point (go statements with an empty
// state, since the goroutine runs after the caller releases the lock),
// and literals passed to a transaction wrapper — a method that calls a
// parameter after locking its receiver — with that mutex held.
// Locals are exempt: a store constructed inside the function is not yet
// shared, so New()-style builders need no lock.
package lockcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/tools/analyzers/framework"
	"repro/tools/analyzers/guard"
)

// Analyzer is the lockcheck pass.
var Analyzer = &framework.Analyzer{
	Name:          "lockcheck",
	Doc:           "check that guarded store state is only touched under its guard mutex",
	Run:           run,
	SkipTestFiles: true,
}

func run(pass *framework.Pass) error {
	g := guard.Collect(pass)
	if len(g.Guarded) == 0 {
		return nil
	}
	c := &checker{pass: pass, g: g, locking: map[*types.Func]bool{},
		runsArgs: map[*types.Func]bool{}, lockedLits: map[*ast.FuncLit]string{}}

	// Phase 1: which methods acquire their receiver's guard mutex?
	// (These are the "locking methods" a *Locked helper must not call.)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.locking[fn], c.runsArgs[fn] = c.acquiresReceiverMutex(fd)
			}
		}
	}

	// Phase 2: per-function contract checks.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

type checker struct {
	pass    *framework.Pass
	g       *guard.Info
	locking map[*types.Func]bool
	// runsArgs marks the locking methods that are transaction wrappers;
	// lockedLits maps a literal passed to one to its mutex's state key.
	runsArgs   map[*types.Func]bool
	lockedLits map[*ast.FuncLit]string

	// Per-function state:
	fn       *ast.FuncDecl
	enforced map[types.Object]bool // receiver + parameters of fn
	isLocked bool                  // fn has the *Locked suffix
}

// lockState tracks, per mutex expression ("s.mu", "n.store.mu"), whether
// the mutex is held and whether an unlock has been deferred.
type lockState map[string]lockMode

type lockMode struct {
	held     bool
	deferred bool
	// inherited marks a lock held at a function literal's definition
	// point: the closure may rely on it for accesses, but returning from
	// the closure does not leak it (the enclosing function still owns the
	// unlock).
	inherited bool
}

func (st lockState) clone() lockState {
	out := make(lockState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// inherit clones st, marking held locks as owned by an enclosing scope.
func (st lockState) inherit() lockState {
	out := make(lockState, len(st))
	for k, v := range st {
		if v.held {
			v.inherited = true
		}
		out[k] = v
	}
	return out
}

// acquiresReceiverMutex reports whether fd's body contains a direct
// Lock/RLock of a guard mutex rooted at fd's receiver, and whether it
// calls one of its own parameters after that: a transaction wrapper.
func (c *checker) acquiresReceiverMutex(fd *ast.FuncDecl) (locks, runsArgs bool) {
	recv := receiverObj(c.pass, fd)
	if recv == nil {
		return false, false
	}
	params := fd.Type.Params
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && locks {
			if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok && v.Pos() >= params.Pos() && v.Pos() < params.End() {
				runsArgs = true
			}
		}
		op, mutexExpr := c.mutexOp(call)
		if op == "Lock" || op == "RLock" {
			if root := guard.RootIdent(mutexExpr); root != nil && c.pass.TypesInfo.Uses[root] == recv {
				locks = true
			}
		}
		return true
	})
	return locks, runsArgs
}

// mutexOp recognizes <expr>.mu.Lock()/RLock()/Unlock()/RUnlock() where mu
// is a guard mutex field, returning the operation name and the mutex
// expression ("" when the call is not a guard-mutex operation).
func (c *checker) mutexOp(call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", nil
	}
	mutexSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fld := guard.FieldSel(c.pass, mutexSel)
	if fld == nil || !c.g.Mutexes[fld] {
		return "", nil
	}
	return sel.Sel.Name, sel.X
}

func receiverObj(pass *framework.Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
}

// checkFunc applies the contract to one function declaration.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	c.fn = fd
	c.isLocked = strings.HasSuffix(fd.Name.Name, "Locked")
	c.enforced = map[types.Object]bool{}
	if recv := receiverObj(c.pass, fd); recv != nil {
		c.enforced[recv] = true
	}
	for _, fld := range fd.Type.Params.List {
		for _, name := range fld.Names {
			if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
				c.enforced[obj] = true
			}
		}
	}
	if c.isLocked {
		c.checkLockedHelper(fd)
		return
	}
	c.walkStmts(fd.Body.List, lockState{})
}

// checkLockedHelper enforces rule 2: no mutex operations, no calls to
// locking methods. Guarded accesses are free (the caller holds the lock).
func (c *checker) checkLockedHelper(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, mutexExpr := c.mutexOp(call); op != "" {
			if root := guard.RootIdent(mutexExpr); root != nil && c.enforced[c.pass.TypesInfo.Uses[root]] {
				c.pass.Reportf(call.Pos(),
					"%s %ss %s, but *Locked helpers run with the lock already held (RWMutex is not reentrant)",
					fd.Name.Name, op, guard.Render(mutexExpr))
			}
			return true
		}
		if fn, base := c.lockingMethodCall(call); fn != nil {
			if root := guard.RootIdent(base); root != nil && c.enforced[c.pass.TypesInfo.Uses[root]] {
				c.pass.Reportf(call.Pos(),
					"%s calls %s, which acquires the lock the *Locked contract says is already held",
					fd.Name.Name, fn.Name())
			}
		}
		return true
	})
}

// lockingMethodCall resolves a call to a method known to acquire its
// receiver's guard mutex, returning the method and receiver expression.
func (c *checker) lockingMethodCall(call *ast.CallExpr) (*types.Func, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil, nil
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || !c.locking[fn] {
		return nil, nil
	}
	return fn, sel.X
}

// lockedHelperCall resolves a call to a *Locked-suffixed method on a
// guard-annotated struct.
func (c *checker) lockedHelperCall(call *ast.CallExpr) (*types.Func, ast.Expr, *types.TypeName) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil, nil
	}
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil, nil, nil
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || !strings.HasSuffix(fn.Name(), "Locked") {
		return nil, nil, nil
	}
	tn := guard.NamedOf(s.Recv())
	if tn == nil || c.g.ByType[tn] == nil {
		return nil, nil, nil
	}
	return fn, sel.X, tn
}

// mutexKeyForBase builds the lock-state key guarding an access through
// base (e.g. base "s.links" rendered from its X "s" + mutex name "mu" →
// "s.mu").
func (c *checker) mutexKeyFor(baseExpr ast.Expr, tn *types.TypeName) string {
	return guard.Render(baseExpr) + "." + c.g.MutexName[tn]
}

// enforceableRoot reports whether the selector chain is rooted at a
// receiver or parameter of the current function (locals are exempt: a
// locally constructed store is not shared yet).
func (c *checker) enforceableRoot(e ast.Expr) bool {
	root := guard.RootIdent(e)
	if root == nil {
		return false
	}
	return c.enforced[c.pass.TypesInfo.Uses[root]]
}

// --- statement walking with lock-state tracking ---

// walkStmts walks a statement list, updating st in place, and reports
// whether the list always terminates (return / branch) before falling
// off the end.
func (c *checker) walkStmts(stmts []ast.Stmt, st lockState) bool {
	for _, s := range stmts {
		if c.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (c *checker) walkStmt(s ast.Stmt, st lockState) bool {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if op, mutexExpr := c.mutexOp(call); op != "" {
				c.applyMutexOp(op, mutexExpr, call, st, false)
				return false
			}
		}
		c.scanExpr(x.X, st)
	case *ast.DeferStmt:
		if op, mutexExpr := c.mutexOp(x.Call); op != "" {
			c.applyMutexOp(op, mutexExpr, x.Call, st, true)
			return false
		}
		c.scanExpr(x.Call, st)
	case *ast.GoStmt:
		// The goroutine runs on its own schedule; analyze its body with
		// no lock held rather than inheriting the spawner's state.
		if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
			c.walkStmts(lit.Body.List, lockState{})
			for _, arg := range x.Call.Args {
				c.scanExpr(arg, st)
			}
		} else {
			c.scanExpr(x.Call, st)
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			c.scanExpr(r, st)
		}
		for key, mode := range st {
			if mode.held && !mode.deferred && !mode.inherited {
				c.pass.Reportf(x.Pos(),
					"%s returns while holding %s with no deferred unlock; an early return leaks the lock",
					c.fn.Name.Name, strings.TrimSuffix(key, ""))
			}
		}
		return true
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			c.scanExpr(e, st)
		}
		for _, e := range x.Lhs {
			c.scanExpr(e, st)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.scanExpr(v, st)
					}
				}
			}
		}
	case *ast.IfStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, st)
		}
		c.scanExpr(x.Cond, st)
		thenSt := st.clone()
		thenTerm := c.walkStmts(x.Body.List, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if x.Else != nil {
			elseTerm = c.walkStmt(x.Else, elseSt)
		}
		c.merge(st, thenSt, thenTerm, elseSt, elseTerm)
		return thenTerm && elseTerm
	case *ast.BlockStmt:
		return c.walkStmts(x.List, st)
	case *ast.ForStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, st)
		}
		if x.Cond != nil {
			c.scanExpr(x.Cond, st)
		}
		bodySt := st.clone()
		c.walkStmts(x.Body.List, bodySt)
		if x.Post != nil {
			c.walkStmt(x.Post, bodySt)
		}
		// The loop may run zero times; keep the pre-loop state.
	case *ast.RangeStmt:
		c.scanExpr(x.X, st)
		bodySt := st.clone()
		c.walkStmts(x.Body.List, bodySt)
	case *ast.SwitchStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, st)
		}
		if x.Tag != nil {
			c.scanExpr(x.Tag, st)
		}
		c.walkCases(x.Body, st)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, st)
		}
		c.walkStmt(x.Assign, st)
		c.walkCases(x.Body, st)
	case *ast.SelectStmt:
		c.walkCases(x.Body, st)
	case *ast.LabeledStmt:
		return c.walkStmt(x.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto end this path through the list.
		return true
	case *ast.SendStmt:
		c.scanExpr(x.Chan, st)
		c.scanExpr(x.Value, st)
	case *ast.IncDecStmt:
		c.scanExpr(x.X, st)
	}
	return false
}

// walkCases walks switch/select clause bodies, each from a clone of the
// entry state.
func (c *checker) walkCases(body *ast.BlockStmt, st lockState) {
	for _, clause := range body.List {
		caseSt := st.clone()
		switch cl := clause.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				c.scanExpr(e, caseSt)
			}
			c.walkStmts(cl.Body, caseSt)
		case *ast.CommClause:
			if cl.Comm != nil {
				c.walkStmt(cl.Comm, caseSt)
			}
			c.walkStmts(cl.Body, caseSt)
		}
	}
}

// merge folds branch exit states back into st. A terminating branch
// contributes nothing (control never falls through it); when both
// branches fall through with disagreeing lock states the walker keeps
// the "not held" view — the access rule then stays strict on the paths
// it can still prove.
func (c *checker) merge(st, thenSt lockState, thenTerm bool, elseSt lockState, elseTerm bool) {
	switch {
	case thenTerm && elseTerm:
	case thenTerm:
		replace(st, elseSt)
	case elseTerm:
		replace(st, thenSt)
	default:
		for key := range union(thenSt, elseSt) {
			a, b := thenSt[key], elseSt[key]
			if a == b {
				st[key] = a
			} else {
				delete(st, key)
			}
		}
	}
}

func replace(dst, src lockState) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

func union(a, b lockState) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// applyMutexOp updates the lock state for a guard-mutex operation.
func (c *checker) applyMutexOp(op string, mutexExpr ast.Expr, call *ast.CallExpr, st lockState, isDefer bool) {
	if !c.enforceableRoot(mutexExpr) {
		return
	}
	key := guard.Render(mutexExpr)
	switch op {
	case "Lock", "RLock":
		if isDefer {
			// defer s.mu.Lock() is always a bug; flag it as a leak.
			c.pass.Reportf(call.Pos(), "%s defers a %s of %s; deferred acquires run at return and deadlock", c.fn.Name.Name, op, key)
			return
		}
		if mode := st[key]; mode.held {
			c.pass.Reportf(call.Pos(), "%s %ss %s twice; RWMutex is not reentrant", c.fn.Name.Name, op, key)
		}
		st[key] = lockMode{held: true}
	case "Unlock", "RUnlock":
		if isDefer {
			mode := st[key]
			mode.deferred = true
			st[key] = mode
			return
		}
		mode := st[key]
		mode.held = false
		st[key] = mode
	}
}

// scanExpr checks accesses inside an expression against the current lock
// state: guarded field reads, *Locked helper calls, and calls to locking
// methods. Function literals are walked with the state at their
// definition point.
func (c *checker) scanExpr(e ast.Expr, st lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			inner := st.inherit()
			if key, ok := c.lockedLits[x]; ok {
				inner[key] = lockMode{held: true, inherited: true}
			}
			c.walkStmts(x.Body.List, inner)
			return false
		case *ast.CallExpr:
			c.checkCall(x, st)
			c.markLockedLits(x)
		case *ast.SelectorExpr:
			c.checkGuardedAccess(x, st)
		}
		return true
	})
}

// markLockedLits records the function literals call passes to a
// transaction wrapper, so scanExpr walks them with its mutex held.
func (c *checker) markLockedLits(call *ast.CallExpr) {
	fn, base := c.lockingMethodCall(call)
	if fn == nil || !c.runsArgs[fn] || !c.enforceableRoot(base) {
		return
	}
	tn := guard.NamedOf(c.pass.TypesInfo.Types[base].Type)
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok && tn != nil {
			c.lockedLits[lit] = c.mutexKeyFor(base, tn)
		}
	}
}

// checkGuardedAccess flags guarded field reads outside the lock.
func (c *checker) checkGuardedAccess(sel *ast.SelectorExpr, st lockState) {
	fld := guard.FieldSel(c.pass, sel)
	if fld == nil {
		return
	}
	mu, ok := c.g.Guarded[fld]
	if !ok || mu == nil {
		return
	}
	if !c.enforceableRoot(sel.X) {
		return
	}
	key := guard.Render(sel.X) + "." + mu.Name()
	if st[key].held {
		return
	}
	access := guard.Render(sel.X) + "." + fld.Name()
	if ast.IsExported(c.fn.Name.Name) {
		c.pass.Reportf(sel.Pos(),
			"exported %s accesses guarded field %s without holding %s",
			c.fn.Name.Name, access, key)
	} else {
		c.pass.Reportf(sel.Pos(),
			"unexported %s accesses guarded field %s without acquiring %s; hold the lock or take the *Locked suffix to document the caller-holds contract",
			c.fn.Name.Name, access, key)
	}
}

// checkCall flags *Locked helper calls made without the lock and locking
// method calls made with it.
func (c *checker) checkCall(call *ast.CallExpr, st lockState) {
	if fn, base, tn := c.lockedHelperCall(call); fn != nil && c.enforceableRoot(base) {
		key := c.mutexKeyFor(base, tn)
		if !st[key].held {
			c.pass.Reportf(call.Pos(),
				"%s calls %s without holding %s; *Locked helpers require the lock",
				c.fn.Name.Name, fn.Name(), key)
		}
		return
	}
	if fn, base := c.lockingMethodCall(call); fn != nil && c.enforceableRoot(base) {
		tn := guard.NamedOf(c.pass.TypesInfo.Types[base].Type)
		if tn == nil || c.g.MutexName[tn] == "" {
			return
		}
		key := c.mutexKeyFor(base, tn)
		if st[key].held {
			c.pass.Reportf(call.Pos(),
				"%s calls %s while holding %s; %s acquires the same lock and would deadlock",
				c.fn.Name.Name, fn.Name(), key, fn.Name())
		}
	}
}
