package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"flowdiff/internal/lint"
)

// wallClockScope lists the packages that must be pure functions of the
// log's virtual clock (paper §IV–V: signatures and simulation replay the
// log's timestamps; reading the host clock or the global RNG makes a run
// irreproducible).
var wallClockScope = []string{
	"flowdiff/internal/core",
	"flowdiff/internal/simnet",
	"flowdiff/internal/switchsim",
	"flowdiff/internal/flowlog",
}

// wallClockInstrumented lists the packages brought into scope by the
// obs layer: their production code carries span timers, so every clock read
// must route through the injectable obs.Clock (Registry.Now/Since) —
// a direct time.Now would put untestable wall-clock reads inside
// instrumented stages. Matching is exact, not by prefix: "flowdiff"
// must not sweep flowdiff/cmd or flowdiff/examples. Unlike the
// virtual-time scope, _test.go files are exempt here — the root
// package's tests exercise real concurrency (goroutine settling, cancellation
// timing) and legitimately sleep on the host clock. The obs package
// itself is the sanctioned clock owner and stays out of scope.
var wallClockInstrumented = map[string]bool{
	"flowdiff": true,
}

// bannedTimeFuncs reach the host's wall clock (or schedule against it).
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// allowedRandFuncs construct explicitly seeded generators and are the
// sanctioned replacement for the global source.
var allowedRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// WallClock forbids wall-clock reads and the globally seeded RNG inside
// the simulator and signature packages.
var WallClock = &lint.Analyzer{
	Name: "wallclock",
	Doc:  "forbids time.Now/Since/timers and global math/rand in virtual-time packages (simulation must be a pure function of the log)",
	Run:  runWallClock,
}

func runWallClock(pass *lint.Pass) {
	if pass.Pkg == nil {
		return
	}
	instrumented := wallClockInstrumented[pass.Pkg.Path()]
	if !instrumented && !inScope(pass.Pkg.Path(), wallClockScope...) {
		return
	}
	for _, f := range pass.Files {
		if instrumented && strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are seeded instances
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTimeFuncs[fn.Name()] {
					if instrumented {
						pass.Reportf(sel.Pos(), "time.%s reads the wall clock directly: instrumented stages must go through the injectable obs.Clock (Registry.Now/Since)", fn.Name())
					} else {
						pass.Reportf(sel.Pos(), "time.%s reads the wall clock: this package must be a pure function of the log's virtual time", fn.Name())
					}
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(), "global %s.%s is implicitly seeded: use an explicit *rand.Rand (rand.New(rand.NewSource(seed))) so runs are reproducible", fn.Pkg().Name(), fn.Name())
				}
			}
			return true
		})
	}
}
