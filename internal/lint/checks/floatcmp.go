package checks

import (
	"go/ast"
	"go/token"

	"flowdiff/internal/lint"
)

// floatCmpScope: the packages that compare delay/PC/flow statistics. The
// paper's comparisons are epsilon-based; exact float equality silently
// diverges between summation orders and between architectures.
var floatCmpScope = []string{
	"flowdiff/internal/core/signature",
	"flowdiff/internal/core/diff",
	"flowdiff/internal/stats",
}

// FloatCmp flags == / != between floating-point operands and map types
// keyed by floats inside the statistics-comparing packages. Test files
// are exempt: asserting an exact expected value of a deterministic
// computation is the point of a regression test.
var FloatCmp = &lint.Analyzer{
	Name:          "floatcmp",
	Doc:           "flags float equality and float map keys in signature/diff/stats: use stats.ApproxEqual / stats.NearZero (epsilon) instead",
	SkipTestFiles: true,
	Run:           runFloatCmp,
}

func runFloatCmp(pass *lint.Pass) {
	if pass.Pkg == nil || !inScope(pass.Pkg.Path(), floatCmpScope...) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				if e.Op != token.EQL && e.Op != token.NEQ {
					return true
				}
				if !isFloat(pass.TypeOf(e.X)) && !isFloat(pass.TypeOf(e.Y)) {
					return true
				}
				if bothConst(pass, e.X, e.Y) {
					return true
				}
				if isNaNIdiom(e) {
					return true // x != x is the canonical NaN test
				}
				pass.Reportf(e.OpPos, "floating-point %s comparison: use stats.ApproxEqual / stats.NearZero so shard summation order cannot flip the result", e.Op)
			case *ast.MapType:
				if isFloat(pass.TypeOf(e.Key)) {
					pass.Reportf(e.Key.Pos(), "map keyed by floating-point values: nearly-equal keys hash apart, so lookups depend on bit-exact arithmetic")
				}
			}
			return true
		})
	}
}

func bothConst(pass *lint.Pass, x, y ast.Expr) bool {
	if pass.TypesInfo == nil {
		return false
	}
	xv, yv := pass.TypesInfo.Types[x], pass.TypesInfo.Types[y]
	return xv.Value != nil && yv.Value != nil
}

func isNaNIdiom(e *ast.BinaryExpr) bool {
	x, okX := e.X.(*ast.Ident)
	y, okY := e.Y.(*ast.Ident)
	return okX && okY && x.Name == y.Name
}
