// Package checks holds FlowDiff's repo-specific analyzers. Each one
// machine-checks an invariant the pipeline's correctness argument leans
// on; DESIGN.md ("Determinism invariants") documents the mapping.
package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"flowdiff/internal/lint"
)

// All returns every analyzer in the suite, in stable order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		MapIter,
		WallClock,
		FloatCmp,
		ErrCheck,
		SentinelErr,
		ObsSpan,
	}
}

// inScope reports whether the package's import path falls under one of
// the given path prefixes (whole segments, so "flowdiff/internal/core"
// matches "flowdiff/internal/core/diff" but not ".../corelike").
func inScope(pkgPath string, prefixes ...string) bool {
	for _, p := range prefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// isFloat reports whether t's underlying type is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isString reports whether t's underlying type is a string type.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// declaredOutside reports whether id resolves to a variable declared
// outside the [from, to) position range (i.e. state shared with code
// beyond that region). Non-variables and unresolved identifiers are not
// "outside" — there is nothing shared to race on.
func declaredOutside(pass *lint.Pass, id *ast.Ident, from, to ast.Node) bool {
	obj := pass.ObjectOf(id)
	if obj == nil {
		return false
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return false
	}
	return obj.Pos() < from.Pos() || obj.Pos() >= to.End()
}

// funcScopeOf walks up the enclosing-node stack to the innermost function
// body containing the node at stack top, returning its body (or nil at
// package level).
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// inspectWithStack walks every file in the pass, maintaining the stack of
// enclosing nodes (stack excludes n itself).
func inspectWithStack(pass *lint.Pass, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			descend := visit(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}
