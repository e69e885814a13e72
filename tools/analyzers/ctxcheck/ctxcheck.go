// Package ctxcheck enforces context threading on the read surface. The
// serving stack's cancellation story (SERVING.md) only works if the
// request context reaches every blocking callee: a handler that calls
// the context-free variant of an engine entry point silently loses the
// deadline, and a context.Background() deep in a request path detaches
// everything below it from admission timeouts and client disconnects.
//
// Three rules:
//
//  1. A function that receives a context.Context (directly or from an
//     enclosing function literal) must not mint fresh roots: calls to
//     context.Background()/context.TODO() there are flagged everywhere
//     in the module.
//  2. Inside the request-path packages listed in StrictPackages the ban
//     is unconditional — Background/TODO are flagged in any production
//     function, because everything in those packages runs downstream of
//     a request context. Justified process-lifetime roots carry a
//     //repro:vet-ignore with the reason.
//  3. A function holding a context must thread it: calling X(...) when a
//     sibling XCtx/XContext taking a context exists (same package, or
//     the receiver's method set) is flagged — the caller had a context
//     and chose the variant that drops it.
//
// Test files are exempt (SkipTestFiles): tests are their own roots.
package ctxcheck

import (
	"go/ast"
	"go/types"

	"repro/tools/analyzers/framework"
	"repro/tools/analyzers/guard"
)

var Analyzer = &framework.Analyzer{
	Name: "ctxcheck",
	Doc: "check that request paths thread their context: no fresh " +
		"Background/TODO roots, no calls to context-free variants when a " +
		"Ctx/Context sibling exists",
	Run:           run,
	SkipTestFiles: true,
}

// StrictPackages lists the import paths where rule 2 applies: every
// function in these packages is presumed to run under a request context.
// A var, not a const, so the fixture tests can enlist themselves.
var StrictPackages = map[string]bool{
	"repro/internal/match":  true,
	"repro/internal/server": true,
	"repro/internal/ndm":    true,
}

func run(pass *framework.Pass) error {
	strict := StrictPackages[pass.Pkg.Path()]
	for _, f := range pass.Files {
		checkFuncs(pass, f, strict)
	}
	return nil
}

// checkFuncs walks the file tracking whether a context is in scope for
// the function (or literal) currently being visited.
func checkFuncs(pass *framework.Pass, f *ast.File, strict bool) {
	// ctxDepth > 0 while inside a function whose own parameters (or an
	// enclosing literal's captures) provide a context.
	var walk func(n ast.Node, haveCtx bool)
	walk = func(n ast.Node, haveCtx bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncDecl:
				if m == n {
					return true
				}
				walk(m, hasCtxParam(pass, m.Type))
				return false
			case *ast.FuncLit:
				// A literal inherits the enclosing scope's context and
				// may add its own parameter.
				walk(m.Body, haveCtx || hasCtxParam(pass, m.Type))
				return false
			case *ast.CallExpr:
				checkCall(pass, m, haveCtx, strict)
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			walk(fd, hasCtxParam(pass, fd.Type))
		}
	}
}

func checkCall(pass *framework.Pass, call *ast.CallExpr, haveCtx, strict bool) {
	if name, ok := isContextRoot(pass, call); ok {
		switch {
		case haveCtx:
			pass.Reportf(call.Pos(),
				"context.%s inside a function that already has a context; derive from the caller's ctx instead of starting a fresh root", name)
		case strict:
			pass.Reportf(call.Pos(),
				"context.%s in a request-path package (%s); derive from the request context, or vet-ignore with the reason this is a process-lifetime root", name, pass.Pkg.Path())
		}
		return
	}
	if !haveCtx {
		return
	}
	// Rule 3: the caller holds a context; does this call drop it?
	if variant := ctxVariantOf(pass, call); variant != "" {
		pass.Reportf(call.Pos(),
			"call discards the caller's context; use %s so cancellation and deadlines propagate", variant)
	}
}

// isContextRoot matches context.Background() / context.TODO().
func isContextRoot(pass *framework.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name(), true
	}
	return "", false
}

// ctxVariantOf returns the name of a context-taking sibling of the
// callee ("CheckpointDirCtx", "exec.CommandContext") when the call neither takes
// nor receives a context, or "" when the call is fine.
func ctxVariantOf(pass *framework.Pass, call *ast.CallExpr) string {
	// Already threading a context? Fine.
	for _, a := range call.Args {
		if tv, ok := pass.TypesInfo.Types[a]; ok && isContextType(tv.Type) {
			return ""
		}
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, ok := pass.TypesInfo.Uses[fun].(*types.Func)
		if !ok || fn.Pkg() == nil || takesContext(fn) {
			return ""
		}
		for _, suffix := range []string{"Ctx", "Context"} {
			if sib, ok := pass.Pkg.Scope().Lookup(fn.Name() + suffix).(*types.Func); ok && takesContext(sib) {
				return sib.Name()
			}
		}
	case *ast.SelectorExpr:
		fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || takesContext(fn) {
			return ""
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			// Qualified call into another package: look for the sibling
			// in the callee's scope.
			for _, suffix := range []string{"Ctx", "Context"} {
				if sib, ok := fn.Pkg().Scope().Lookup(fn.Name() + suffix).(*types.Func); ok && takesContext(sib) {
					return fn.Pkg().Name() + "." + sib.Name()
				}
			}
			return ""
		}
		// Method call: search the receiver's method set.
		rtv, ok := pass.TypesInfo.Types[fun.X]
		if !ok {
			return ""
		}
		for _, suffix := range []string{"Ctx", "Context"} {
			obj, _, _ := types.LookupFieldOrMethod(rtv.Type, true, pass.Pkg, fn.Name()+suffix)
			if sib, ok := obj.(*types.Func); ok && takesContext(sib) {
				if tn := guard.NamedOf(rtv.Type); tn != nil {
					return tn.Name() + "." + sib.Name()
				}
				return sib.Name()
			}
		}
	}
	return ""
}

// takesContext reports whether any parameter of fn is a context.Context.
func takesContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// hasCtxParam reports whether the function type declares a
// context.Context parameter.
func hasCtxParam(pass *framework.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, p := range ft.Params.List {
		if tv, ok := pass.TypesInfo.Types[p.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	tn := guard.NamedOf(t)
	return tn != nil && tn.Pkg() != nil && tn.Pkg().Path() == "context" && tn.Name() == "Context"
}
