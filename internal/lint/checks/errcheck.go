package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"flowdiff/internal/lint"
)

// errCheckScope: the operator-facing entry points and the routing logic
// that decides which simulated flows are delivered. A dropped error in
// either turns a failed diagnosis into a silently wrong one, which is
// worse than a crash for a system whose whole job is producing
// trustworthy reports.
var errCheckScope = []string{
	"flowdiff/cmd",
	"flowdiff/internal/controller",
}

// errCheckExempt lists call targets whose error is conventionally
// ignorable when writing to an interactive stream.
var errCheckExempt = map[string]bool{
	"fmt.Print":   true,
	"fmt.Printf":  true,
	"fmt.Println": true,
}

// errCheckDeferScope extends the deferred-discard rule to the flow-log
// writers: a `defer w.Close()` that drops the flush error can truncate
// a capture silently, which the reader only discovers segments later.
var errCheckDeferScope = []string{
	"flowdiff/internal/flowlog",
}

// ErrCheck flags expression statements that discard a returned error in
// cmd/ and internal/controller, and — additionally under
// internal/flowlog — deferred Close/Flush/Sync calls that discard the
// error of a write-side resource (a file opened for writing, a buffered
// writer, an in-module *Writer type). Read-side closes (os.Open files,
// connections) stay exempt: there is no buffered data to lose. Test
// files are exempt (tests discard errors from helpers they immediately
// assert on).
var ErrCheck = &lint.Analyzer{
	Name:          "errcheck",
	Doc:           "flags discarded error returns in cmd/ and the simulator's routing logic (internal/controller), including deferred closes of writable resources",
	SkipTestFiles: true,
	Run:           runErrCheck,
}

func runErrCheck(pass *lint.Pass) {
	if pass.Pkg == nil {
		return
	}
	path := pass.Pkg.Path()
	plain := inScope(path, errCheckScope...)
	deferred := plain || inScope(path, errCheckDeferScope...)
	if !plain && !deferred {
		return
	}
	for _, f := range pass.Files {
		if plain {
			ast.Inspect(f, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !returnsError(pass, call) || exemptCall(pass, call) {
					return true
				}
				pass.Reportf(call.Pos(), "error returned by %s is discarded: handle it or assign to _ with a reason", callName(call))
				return true
			})
		}
		if deferred {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkDeferredDiscards(pass, fd)
			}
		}
	}
}

// checkDeferredDiscards flags `defer x.Close()` (and Flush/Sync) inside
// fd when the discarded error belongs to a write-side resource.
func checkDeferredDiscards(pass *lint.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd, func(n ast.Node) bool {
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		call := def.Call
		if call == nil || !returnsError(pass, call) {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Close", "Flush", "Sync":
		default:
			return true
		}
		why := writableReceiver(pass, sel, fd)
		if why == "" {
			return true
		}
		pass.Reportf(def.Pos(), "error returned by deferred %s is discarded: %s; capture it (e.g. into a named error return)", callName(call), why)
		return true
	})
}

// writableReceiver classifies sel's receiver as a write-side resource,
// returning a non-empty reason when the deferred close must not drop
// its error.
func writableReceiver(pass *lint.Pass, sel *ast.SelectorExpr, fd *ast.FuncDecl) string {
	t := pass.TypeOf(sel.X)
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	switch full {
	case "os.File":
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && boundToWritableOpen(pass, id, fd) {
			return "the file was opened for writing, so the close carries the final flush"
		}
		return ""
	case "bufio.Writer":
		return "unflushed buffered writes are lost silently"
	}
	if inScope(named.Obj().Pkg().Path(), "flowdiff") && strings.Contains(named.Obj().Name(), "Writer") {
		return "the writer's close finalizes buffered output"
	}
	return ""
}

// namedOf unwraps a possible pointer to its named type.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// boundToWritableOpen reports whether id is assigned, anywhere in fd,
// from os.Create or os.OpenFile — the write-side file constructors.
func boundToWritableOpen(pass *lint.Pass, id *ast.Ident, fd *ast.FuncDecl) bool {
	target := pass.ObjectOf(id)
	if target == nil {
		return false
	}
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fsel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.ObjectOf(fsel.Sel).(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
			return true
		}
		if fn.Name() != "Create" && fn.Name() != "OpenFile" {
			return true
		}
		for _, lhs := range as.Lhs {
			if lid, ok := lhs.(*ast.Ident); ok && pass.ObjectOf(lid) == target {
				found = true
			}
		}
		return !found
	})
	return found
}

func returnsError(pass *lint.Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	errIface, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	check := func(one types.Type) bool {
		return one != nil && types.Implements(one, errIface)
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if check(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return check(t)
}

func exemptCall(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	// fmt.Fprint* to the process's standard streams: the write can only
	// fail when the terminal is gone, at which point nobody is reading.
	if fn.Pkg().Path() == "fmt" && len(call.Args) > 0 {
		switch fn.Name() {
		case "Fprint", "Fprintf", "Fprintln":
			if dst, ok := call.Args[0].(*ast.SelectorExpr); ok {
				if x, ok := dst.X.(*ast.Ident); ok {
					if pn, ok := pass.ObjectOf(x).(*types.PkgName); ok && pn.Imported().Path() == "os" &&
						(dst.Sel.Name == "Stderr" || dst.Sel.Name == "Stdout") {
						return true
					}
				}
			}
		}
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		// (*strings.Builder) and (*bytes.Buffer) writes are documented to
		// never return a non-nil error.
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok && named.Obj().Pkg() != nil {
			full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
			return full == "strings.Builder" || full == "bytes.Buffer"
		}
		return false
	}
	return errCheckExempt[fn.Pkg().Path()+"."+fn.Name()]
}

func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
