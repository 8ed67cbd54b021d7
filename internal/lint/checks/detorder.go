package checks

import (
	"sort"

	"flowdiff/internal/lint"
)

// DetOrderRoots lists the determinism-critical entry points (by
// FuncID): everything these reach feeds a Report or Signatures value
// that must come out byte-identical at any worker count. A variable so
// the analyzer's tests can swap in fixture roots.
var DetOrderRoots = []string{
	"flowdiff.BuildSignatures",
	"flowdiff.BuildSignaturesReader",
	"flowdiff.Compare",
	"flowdiff/internal/core/diagnose.RankSuspectsContext",
	"flowdiff/internal/core/taskmine.Mine",
	"flowdiff/internal/core/taskmine.MineContext",
	"flowdiff/internal/core/taskmine.MineWithOptions",
	"flowdiff/internal/core/taskmine.MineWithOptionsContext",
}

// DetOrder is the interprocedural extension of mapiter: it follows
// map-iteration order across function boundaries. Within the set of
// functions reachable from DetOrderRoots, it flags
//
//   - a call whose result the fact store proves is in map-iteration
//     order, when the caller neither sorts that result nor returns it
//     for its own caller to sort (returning propagates the
//     map-ordered fact upward instead, so the report lands once, where
//     the order is finally consumed);
//   - a determinism root whose own return value carries map-iteration
//     order all the way out;
//   - an append to a struct field inside map iteration (the report
//     field write mapiter's ident-only check cannot see) in any
//     reachable function.
var DetOrder = &lint.Analyzer{
	Name:          "detorder",
	Doc:           "flags map-iteration order reaching the outputs of determinism-critical roots through any chain of calls",
	SkipTestFiles: true,
	NeedsFacts:    true,
	Run:           runDetOrder,
}

func runDetOrder(pass *lint.Pass) {
	if pass.Pkg == nil || pass.Facts == nil || pass.Graph == nil {
		return
	}
	path := pass.Pkg.Path()
	pf := pass.Facts.Package(path)
	if pf == nil {
		return
	}

	// reachedBy[f] = the first root (sorted order) that reaches f.
	roots := append([]string(nil), DetOrderRoots...)
	sort.Strings(roots)
	reachedBy := make(map[lint.FuncID]string)
	isRoot := make(map[lint.FuncID]bool)
	for _, root := range roots {
		id := lint.FuncID(root)
		if pass.Facts.Func(id) == nil {
			continue
		}
		isRoot[id] = true
		for f := range pass.Graph.Reachable(id) {
			if _, seen := reachedBy[f]; !seen {
				reachedBy[f] = root
			}
		}
	}
	if len(reachedBy) == 0 {
		return
	}

	ids := make([]string, 0, len(pf.Funcs))
	for id := range pf.Funcs {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, idStr := range ids {
		id := lint.FuncID(idStr)
		root, reachable := reachedBy[id]
		if !reachable {
			continue
		}
		s := pf.Funcs[id]
		if isRoot[id] && s.MapOrderedReturn {
			pass.Reportf(s.MapOrderedPos, "map-iteration order reaches the output of determinism root %s (via %s); sort before returning", id, s.MapOrderedVia)
		}
		for i := range s.Calls {
			c := &s.Calls[i]
			if c.ValueRef || c.Callee == "" || c.ResultSorted || c.ResultReturned {
				continue
			}
			cs := pass.Facts.Func(c.Callee)
			if cs == nil || !cs.MapOrderedReturn {
				continue
			}
			pass.Reportf(c.Pos, "result of %s is in map-iteration order (%s) and is consumed unsorted on a path reachable from %s", c.Callee, cs.MapOrderedVia, root)
		}
		for _, fa := range s.FieldMapAppends {
			pass.Reportf(fa.Pos, "append to field %q inside map iteration, reachable from %s: emitted order is nondeterministic; sort the field afterwards", fa.Target, root)
		}
	}
}
