package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"flowdiff/internal/lint"
)

// SpawnJoin guards the no-leaked-goroutines discipline: every `go`
// statement needs a provable join so a finished pipeline leaves nothing
// running. Two joins are recognized, both purely structural:
//
//   - WaitGroup: the goroutine closure calls wg.Done() (usually
//     deferred) on a sync.WaitGroup that the spawning function Add()s
//     before the `go` statement and Wait()s after it — or, for a
//     WaitGroup stored in a struct field, Wait()ed anywhere in the
//     package (the Serve/Close split).
//   - Channel: the goroutine sends on or closes a channel declared
//     outside it, and the spawning function receives from (or ranges
//     over) that channel after the `go` statement.
//
// `go` statements whose body is not a closure cannot be proven and are
// flagged; parallel.ForContext runs workers through its own joined
// WaitGroup, so worker closures never spawn bare goroutines themselves.
// Known fire-and-forget goroutines (a detached HTTP server) carry a
// reasoned //lint:ignore.
var SpawnJoin = &lint.Analyzer{
	Name:          "spawnjoin",
	Doc:           "flags go statements with no provable join (balanced WaitGroup Add/Done/Wait or a drained channel)",
	SkipTestFiles: true,
	Run:           runSpawnJoin,
}

func runSpawnJoin(pass *lint.Pass) {
	if pass.Pkg == nil {
		return
	}
	path := pass.Pkg.Path()
	if path != "flowdiff" && !inScope(path, "flowdiff/internal", "flowdiff/cmd") {
		return
	}

	// Package-wide Wait() sites on struct-field WaitGroups, for the
	// spawn-in-Serve / join-in-Close pattern.
	fieldWaits := make(map[types.Object]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj, method := wgTarget(pass, call)
			if obj == nil || method != "Wait" {
				return true
			}
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				fieldWaits[obj] = true
			}
			return true
		})
	}

	inspectWithStack(pass, func(n ast.Node, stack []ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		decl := enclosingDecl(stack)
		lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			pass.Reportf(g.Pos(), "go statement calls a named function: no join is provable here; spawn a closure that signals a WaitGroup or channel, or use parallel.ForContext")
			return true
		}
		if decl == nil {
			pass.Reportf(g.Pos(), "go statement outside any function declaration has no provable join")
			return true
		}
		if waitGroupJoin(pass, g, lit, decl, fieldWaits) || channelJoin(pass, g, lit, decl) {
			return true
		}
		pass.Reportf(g.Pos(), "goroutine has no provable join: no balanced WaitGroup Add/Done/Wait and no channel drained by the spawner")
		return true
	})
}

// enclosingDecl returns the outermost FuncDecl on the stack.
func enclosingDecl(stack []ast.Node) *ast.FuncDecl {
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// wgTarget resolves call as a method call on a sync.WaitGroup value,
// returning the identity of the WaitGroup (the local variable object,
// or the struct field object for s.wg) and the method name.
func wgTarget(pass *lint.Pass, call *ast.CallExpr) (types.Object, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	recv := pass.TypeOf(sel.X)
	if !isWaitGroup(recv) {
		return nil, ""
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return pass.ObjectOf(x), sel.Sel.Name
	case *ast.SelectorExpr:
		if s, ok := pass.TypesInfo.Selections[x]; ok {
			return s.Obj(), sel.Sel.Name
		}
	case *ast.UnaryExpr:
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && x.Op == token.AND {
			return pass.ObjectOf(id), sel.Sel.Name
		}
	}
	return nil, ""
}

// isWaitGroup reports whether t (possibly a pointer) is sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// waitGroupJoin proves the WaitGroup pattern for one go statement: the
// closure Done()s a WaitGroup that is Add()ed before the spawn and
// Wait()ed after it in the same declaration (or, for a field-held
// WaitGroup, Wait()ed anywhere in the package).
func waitGroupJoin(pass *lint.Pass, g *ast.GoStmt, lit *ast.FuncLit, decl *ast.FuncDecl, fieldWaits map[types.Object]bool) bool {
	// WaitGroups Done()d inside the goroutine body.
	doneOn := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if obj, method := wgTarget(pass, call); obj != nil && method == "Done" {
				doneOn[obj] = true
			}
		}
		return true
	})
	if len(doneOn) == 0 {
		return false
	}
	added := make(map[types.Object]bool)
	waited := make(map[types.Object]bool)
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj, method := wgTarget(pass, call)
		if obj == nil || !doneOn[obj] {
			return true
		}
		switch method {
		case "Add":
			if call.Pos() < g.Pos() {
				added[obj] = true
			}
		case "Wait":
			if call.Pos() > g.Pos() {
				waited[obj] = true
			}
		}
		return true
	})
	for obj := range doneOn {
		if added[obj] && (waited[obj] || fieldWaits[obj]) {
			return true
		}
	}
	return false
}

// channelJoin proves the channel pattern: the goroutine sends on or
// closes an outer channel that the spawning declaration receives from
// (or ranges over) after the go statement.
func channelJoin(pass *lint.Pass, g *ast.GoStmt, lit *ast.FuncLit, decl *ast.FuncDecl) bool {
	// Channels signalled from inside the goroutine body.
	signalled := make(map[types.Object]bool)
	note := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil && obj.Pos() < lit.Pos() {
				signalled[obj] = true
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SendStmt:
			note(s.Chan)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin && len(s.Args) == 1 {
					note(s.Args[0])
				}
			}
		}
		return true
	})
	if len(signalled) == 0 {
		return false
	}
	received := false
	ast.Inspect(decl, func(n ast.Node) bool {
		if received || n == nil || n.End() <= g.End() {
			return !received
		}
		switch s := n.(type) {
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				if id, ok := ast.Unparen(s.X).(*ast.Ident); ok {
					if obj := pass.ObjectOf(id); obj != nil && signalled[obj] {
						received = true
					}
				}
			}
		case *ast.RangeStmt:
			if id, ok := ast.Unparen(s.X).(*ast.Ident); ok {
				if obj := pass.ObjectOf(id); obj != nil && signalled[obj] {
					received = true
				}
			}
		}
		return !received
	})
	return received
}
