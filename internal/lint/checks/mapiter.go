package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"flowdiff/internal/lint"
)

// MapIter guards the run-to-run determinism guarantee: any output
// assembled while ranging over a map inherits Go's randomized iteration
// order unless the keys or the result are sorted. It flags, inside
// `for ... range m` where m is a map:
//
//   - append to a slice declared outside the loop, unless the enclosing
//     function later sorts that slice (sort.Slice/Sort/Strings/...);
//   - append to a struct field (r.items = append(r.items, ...)), unless
//     a later sort.*/slices.* call names that field — a report field
//     filled in map order is as nondeterministic as a local slice;
//   - a channel send (downstream receivers observe map order);
//   - op-assignment (+=, ...) to an outer float or string accumulator
//     (float addition is not associative; string concat is ordered —
//     integer accumulation commutes and is exempt).
//
// Writes indexed by the iteration key (out[k] = v) are order-independent
// and never flagged.
var MapIter = &lint.Analyzer{
	Name: "mapiter",
	Doc:  "flags map iteration whose order leaks into results (append/send/float-or-string accumulation without a dominating sort)",
	Run:  runMapIter,
}

func runMapIter(pass *lint.Pass) {
	inspectWithStack(pass, func(n ast.Node, stack []ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := typeAsMap(pass, rng.X); !isMap {
			return true
		}
		fnBody := enclosingFuncBody(stack)
		ast.Inspect(rng.Body, func(inner ast.Node) bool {
			switch s := inner.(type) {
			case *ast.SendStmt:
				pass.Reportf(s.Pos(), "send on channel inside map iteration: receivers observe nondeterministic order")
			case *ast.AssignStmt:
				checkMapIterAssign(pass, s, rng, fnBody)
			}
			return true
		})
		return true
	})
}

func typeAsMap(pass *lint.Pass, e ast.Expr) (*types.Map, bool) {
	t := pass.TypeOf(e)
	if t == nil {
		return nil, false
	}
	m, ok := t.Underlying().(*types.Map)
	return m, ok
}

func checkMapIterAssign(pass *lint.Pass, s *ast.AssignStmt, rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
	// x = append(x, ...) where x is declared outside the range, or
	// x.f = append(x.f, ...) for any struct field f.
	if s.Tok == token.ASSIGN && len(s.Lhs) == 1 && len(s.Rhs) == 1 && isAppendCall(pass, s.Rhs[0]) {
		switch lhs := s.Lhs[0].(type) {
		case *ast.Ident:
			if declaredOutside(pass, lhs, rng, rng) && !sortedAfter(pass, fnBody, rng, lhs) {
				pass.Reportf(s.Pos(), "append to %s inside map iteration without sorting it afterwards: result order is nondeterministic", lhs.Name)
			}
			return
		case *ast.SelectorExpr:
			if _, isField := pass.TypesInfo.Selections[lhs]; isField && !sortedAfter(pass, fnBody, rng, lhs.Sel) {
				pass.Reportf(s.Pos(), "append to field %s inside map iteration without sorting it afterwards: result order is nondeterministic", lhs.Sel.Name)
			}
			return
		}
	}
	// Op-assign accumulation into an outer float/string.
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		return
	}
	for _, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || !declaredOutside(pass, id, rng, rng) {
			continue
		}
		t := pass.TypeOf(id)
		switch {
		case isFloat(t):
			pass.Reportf(s.Pos(), "floating-point accumulation into %s inside map iteration: float addition is not associative, so the result depends on iteration order", id.Name)
		case isString(t):
			pass.Reportf(s.Pos(), "string concatenation into %s inside map iteration: result depends on iteration order", id.Name)
		}
	}
}

func isAppendCall(pass *lint.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.ObjectOf(id)
	if b, ok := obj.(*types.Builtin); ok {
		return b.Name() == "append"
	}
	// Fall back to the name when type info is missing (broken package).
	return obj == nil && id.Name == "append"
}

// sortedAfter reports whether, somewhere after the range statement in the
// same function body, the slice named by id (a variable, or the Sel of a
// field selector) is passed to a sort call — the "dominating sort" that
// makes map-order appends safe.
func sortedAfter(pass *lint.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, id *ast.Ident) bool {
	if fnBody == nil {
		return false
	}
	target := pass.ObjectOf(id)
	if target == nil {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found || n == nil || n.End() <= rng.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if !isSortCall(pass, call.Fun) {
			return true
		}
		arg := call.Args[0]
		// Accept both sort.Slice(xs, ...) and sort.Sort(byFoo(xs)).
		ast.Inspect(arg, func(a ast.Node) bool {
			if aid, ok := a.(*ast.Ident); ok && pass.ObjectOf(aid) == target {
				found = true
			}
			return !found
		})
		return !found
	})
	return found
}

func isSortCall(pass *lint.Pass, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.ObjectOf(pkgID)
	pkgName, ok := obj.(*types.PkgName)
	if !ok {
		return false
	}
	switch pkgName.Imported().Path() {
	case "sort", "slices":
		return true
	}
	return false
}
