// Package walcheck enforces the store's durability contract: an exported
// method of a guard-annotated struct (see repro/tools/analyzers/guard)
// that mutates a guarded table — calling Insert, InsertOrGet, Update,
// UpdateColumn, Delete, or TruncatePartition on a //repro:guarded-by
// field, directly or through intra-package helpers — must, somewhere in
// the same call graph, append a WAL record (logRecord) and seal it
// (logCommit). Otherwise a crash after the in-memory mutation loses the
// change, which is exactly the failure the write-ahead log exists to
// prevent.
//
// The pass also flags discarded logRecord errors: a WAL append that
// fails and is ignored silently downgrades the store to best-effort
// durability, so `s.logRecord(...)` as a bare statement or assigned to
// blank is reported.
//
// Two rules keep the write path single: logCommit has one call site, and
// in a package that marks its WAL applier (`//repro:wal-applier`) only
// the applier and helpers called only from applier-only code mutate a
// guarded table directly — live mutations hand it records, so replay
// rebuilds exactly what they built.
//
// Replay-style code that re-applies records already present in the WAL
// is the intended exemption; it carries a justified //repro:vet-ignore.
package walcheck

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"repro/tools/analyzers/framework"
	"repro/tools/analyzers/guard"
)

// Analyzer is the walcheck pass.
var Analyzer = &framework.Analyzer{
	Name:          "walcheck",
	Doc:           "check that guarded-table mutations reach logRecord+logCommit, happen only in the WAL applier, and are sealed at one commit point, and that logRecord errors are handled",
	Run:           run,
	SkipTestFiles: true,
}

// mutators are the table methods that change durable state.
var mutators = map[string]bool{
	"Insert":            true,
	"InsertOrGet":       true,
	"Update":            true,
	"UpdateColumn":      true,
	"Delete":            true,
	"TruncatePartition": true,
}

// funcFacts summarizes one function body for the call-graph walk.
type funcFacts struct {
	decl *ast.FuncDecl
	// mutation is a rendered example like "s.links.Insert" ("" when the
	// body performs no guarded-table mutation).
	mutation   string
	logsRecord bool
	logsCommit bool
	calls      []*types.Func // intra-package callees
	onGuarded  bool          // method on a guard-annotated struct
	isExported bool
	applier    bool // marked //repro:wal-applier
}

func run(pass *framework.Pass) error {
	g := guard.Collect(pass)
	if len(g.Guarded) == 0 {
		return nil
	}
	w := &walker{pass: pass, g: g, facts: map[*types.Func]*funcFacts{}}

	for _, f := range pass.Files {
		// Tests call helpers freely; they are no part of the write path.
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			w.facts[fn] = w.collect(fd)
		}
	}

	if len(w.commits) > 1 {
		for _, call := range w.commits {
			w.pass.Reportf(call.Pos(),
				"logCommit has %d call sites in package %s; seal every mutation at one commit point",
				len(w.commits), w.pass.Pkg.Name())
		}
	}
	w.checkApplier()

	for fn, facts := range w.facts {
		if !facts.onGuarded || !facts.isExported {
			continue
		}
		mutation, record, commit := w.closure(fn, map[*types.Func]bool{})
		if mutation == "" {
			continue
		}
		switch {
		case !record:
			w.pass.Reportf(facts.decl.Name.Pos(),
				"exported %s mutates guarded state (%s) but never calls logRecord; write the WAL record before the in-memory mutation",
				fn.Name(), mutation)
		case !commit:
			w.pass.Reportf(facts.decl.Name.Pos(),
				"exported %s mutates guarded state (%s) without a logCommit on any path; the WAL transaction is never sealed",
				fn.Name(), mutation)
		}
	}
	return nil
}

type walker struct {
	pass    *framework.Pass
	g       *guard.Info
	facts   map[*types.Func]*funcFacts
	commits []*ast.CallExpr // every logCommit call site
}

// checkApplier reports, in a package that marks its WAL applier, every
// direct guarded-table mutation outside applier-only code.
func (w *walker) checkApplier() {
	named := false
	only := map[*types.Func]bool{}
	callers := map[*types.Func][]*types.Func{}
	for fn, facts := range w.facts {
		named = named || facts.applier
		only[fn] = facts.applier
		for _, callee := range facts.calls {
			callers[callee] = append(callers[callee], fn)
		}
	}
	for grew := named; grew; {
		grew = false
		for fn, cs := range callers {
			n := 0
			for _, c := range cs {
				if c == fn || only[c] {
					n++
				}
			}
			if !only[fn] && n == len(cs) {
				only[fn], grew = true, true
			}
		}
	}
	for fn, facts := range w.facts {
		if named && facts.mutation != "" && !only[fn] {
			w.pass.Reportf(facts.decl.Name.Pos(),
				"%s mutates guarded state (%s) outside the WAL applier; build the record and let the applier apply it",
				fn.Name(), facts.mutation)
		}
	}
}

// collect scans one function body for mutations, log calls, intra-package
// callees, and discarded logRecord errors.
func (w *walker) collect(fd *ast.FuncDecl) *funcFacts {
	facts := &funcFacts{
		decl:       fd,
		isExported: ast.IsExported(fd.Name.Name),
		applier: fd.Doc != nil && slices.ContainsFunc(fd.Doc.List, func(c *ast.Comment) bool {
			return c.Text == "//repro:wal-applier"
		}),
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if tn := guard.NamedOf(w.pass.TypesInfo.Types[fd.Recv.List[0].Type].Type); tn != nil && w.g.ByType[tn] != nil {
			facts.onGuarded = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok && w.isLogCall(call, "logRecord") {
				w.pass.Reportf(call.Pos(),
					"result of logRecord is discarded; a failed WAL append must abort the mutation, not be ignored")
			}
		case *ast.AssignStmt:
			if len(x.Rhs) == 1 {
				if call, ok := x.Rhs[0].(*ast.CallExpr); ok && w.isLogCall(call, "logRecord") && allBlank(x.Lhs) {
					w.pass.Reportf(call.Pos(),
						"result of logRecord is discarded; a failed WAL append must abort the mutation, not be ignored")
				}
			}
		case *ast.CallExpr:
			w.collectCall(facts, x)
		}
		return true
	})
	return facts
}

func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// collectCall classifies one call: guarded-table mutation, WAL log call,
// or intra-package callee.
func (w *walker) collectCall(facts *funcFacts, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := w.pass.TypesInfo.Uses[fun].(*types.Func); ok && fn.Pkg() == w.pass.Pkg {
			facts.calls = append(facts.calls, fn)
		}
	case *ast.SelectorExpr:
		if s, ok := w.pass.TypesInfo.Selections[fun]; ok && s.Kind() == types.MethodVal {
			fn, _ := s.Obj().(*types.Func)
			if fn == nil {
				return
			}
			switch {
			case w.isLogMethod(fn, s.Recv()):
				if fn.Name() == "logRecord" {
					facts.logsRecord = true
				} else {
					facts.logsCommit = true
					w.commits = append(w.commits, call)
				}
			case mutators[fn.Name()] && w.guardedReceiver(fun.X):
				if facts.mutation == "" {
					facts.mutation = guard.Render(fun.X) + "." + fn.Name()
				}
			case fn.Pkg() == w.pass.Pkg:
				facts.calls = append(facts.calls, fn)
			}
		} else if fn, ok := w.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() == w.pass.Pkg {
			// Package-qualified call (rare inside one package, but cheap).
			facts.calls = append(facts.calls, fn)
		}
	}
}

// isLogCall reports whether call invokes the named WAL method of a
// guard-annotated struct.
func (w *walker) isLogCall(call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := w.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	fn, _ := s.Obj().(*types.Func)
	return fn != nil && fn.Name() == name && w.isLogMethod(fn, s.Recv())
}

// isLogMethod reports whether fn is logRecord/logCommit on a marked struct.
func (w *walker) isLogMethod(fn *types.Func, recv types.Type) bool {
	if fn.Name() != "logRecord" && fn.Name() != "logCommit" {
		return false
	}
	tn := guard.NamedOf(recv)
	return tn != nil && w.g.ByType[tn] != nil
}

// guardedReceiver reports whether the method receiver expression selects
// a //repro:guarded-by field.
func (w *walker) guardedReceiver(x ast.Expr) bool {
	sel, ok := x.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fld := guard.FieldSel(w.pass, sel)
	if fld == nil {
		return false
	}
	_, guarded := w.g.Guarded[fld]
	return guarded
}

// closure computes the transitive (mutation, logsRecord, logsCommit)
// facts of fn over the intra-package call graph. Cycles are broken by
// the visiting set; package call graphs are small enough that the walk
// runs un-memoized per exported root (memoizing under a cycle guard
// would cache incomplete views).
func (w *walker) closure(fn *types.Func, visiting map[*types.Func]bool) (string, bool, bool) {
	facts, ok := w.facts[fn]
	if !ok || visiting[fn] {
		return "", false, false
	}
	visiting[fn] = true
	mutation, record, commit := facts.mutation, facts.logsRecord, facts.logsCommit
	for _, callee := range facts.calls {
		m, r, c := w.closure(callee, visiting)
		if mutation == "" {
			mutation = m
		}
		record = record || r
		commit = commit || c
	}
	delete(visiting, fn)
	return mutation, record, commit
}
