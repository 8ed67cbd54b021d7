package checks

import (
	"go/ast"
	"go/types"

	"flowdiff/internal/lint"
)

// CtxFlow guards the context-plumbing contract of the public API: every
// context-taking entry point must thread its ctx through to every
// context-accepting callee it reaches, and library code must never
// construct its own root context. Concretely, in the root package and
// under internal/:
//
//   - context.Background()/context.TODO() constructed while a ctx
//     parameter is lexically in scope is a dropped context;
//   - outside ctx scope, a fresh root context is allowed only in the
//     documented wrapper idiom — passed directly as a call argument
//     (`func Foo() { return FooContext(context.Background(), ...) }`);
//   - a ctx-carrying function calling a context-less callee that
//     (transitively, via the module call graph) roots a fresh
//     Background into a context-accepting function drops its ctx just
//     as surely — the *Context variant should be called instead.
//
// cmd/ and examples are out of scope: a main function is exactly where
// root contexts belong.
var CtxFlow = &lint.Analyzer{
	Name:          "ctxflow",
	Doc:           "flags dropped contexts: context.Background()/TODO() in library code outside the wrapper idiom and ctx-carrying functions calling wrappers that root their own context",
	SkipTestFiles: true,
	NeedsFacts:    true,
	Run:           runCtxFlow,
}

func runCtxFlow(pass *lint.Pass) {
	if pass.Pkg == nil {
		return
	}
	path := pass.Pkg.Path()
	if path != "flowdiff" && !inScope(path, "flowdiff/internal") {
		return
	}

	// Syntactic rules: fresh root contexts.
	inspectWithStack(pass, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isCtxRootCall(pass, call) {
			return true
		}
		name := call.Fun.(*ast.SelectorExpr).Sel.Name
		if ctxInScope(pass, stack) {
			pass.Reportf(call.Pos(), "context.%s() constructed while a ctx parameter is in scope: thread the existing ctx instead", name)
			return true
		}
		if !directCallArg(call, stack) {
			pass.Reportf(call.Pos(), "context.%s() in library code outside the wrapper idiom: accept a ctx parameter or pass the fresh context directly to the *Context variant", name)
		}
		return true
	})

	// Interprocedural rule: ctx-carrying functions must not call
	// context-less callees that root their own Background downstream.
	if pass.Facts == nil || pass.Graph == nil {
		return
	}
	pf := pass.Facts.Package(path)
	if pf == nil {
		return
	}
	for _, s := range pf.Funcs {
		if !s.HasCtxParam {
			continue
		}
		for i := range s.Calls {
			c := &s.Calls[i]
			if c.ValueRef || c.Callee == "" || c.CalleeHasCtx {
				continue
			}
			if pass.Facts.Func(c.Callee) == nil || !pass.Graph.NeedsCtx(c.Callee) {
				continue
			}
			root := pass.Graph.CtxRoot(c.Callee)
			if root == c.Callee {
				pass.Reportf(c.Pos, "call to %s drops ctx: it roots its own context.Background(); call the *Context variant or thread ctx", c.CalleeName)
			} else {
				pass.Reportf(c.Pos, "call to %s drops ctx: it reaches %s, which roots its own context.Background(); call the *Context variant or thread ctx", c.CalleeName, root)
			}
		}
	}
}

// isCtxRootCall reports whether call is context.Background() or
// context.TODO().
func isCtxRootCall(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return false
	}
	return fn.Name() == "Background" || fn.Name() == "TODO"
}

// ctxInScope reports whether any enclosing function on the stack takes a
// context.Context parameter.
func ctxInScope(pass *lint.Pass, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		var sig *types.Signature
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			if obj, ok := pass.ObjectOf(fn.Name).(*types.Func); ok {
				sig, _ = obj.Type().(*types.Signature)
			}
		case *ast.FuncLit:
			sig, _ = pass.TypeOf(fn).(*types.Signature)
		default:
			continue
		}
		if sig == nil {
			continue
		}
		params := sig.Params()
		for j := 0; j < params.Len(); j++ {
			if isCtxType(params.At(j).Type()) {
				return true
			}
		}
	}
	return false
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// directCallArg reports whether call appears directly as an argument of
// its parent call expression — the wrapper idiom position.
func directCallArg(call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	parent, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	for _, arg := range parent.Args {
		if ast.Unparen(arg) == call {
			return true
		}
	}
	return false
}
