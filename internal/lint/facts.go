// The fact store: package summaries propagated across the module in
// import-dependency order, the stdlib-only analogue of x/tools analysis
// facts. BuildFacts topologically sorts the loaded packages by their
// in-set imports (so the order the caller passes them in never
// matters), summarizes each one, and then runs the derived-fact
// fixpoint — sentinel-wrapped error propagation — package by package in
// that order. Within one package the fixpoint iterates to handle call
// cycles; across packages a single dependency-ordered pass suffices
// because Go imports are acyclic.
package lint

import (
	"sort"
)

// Facts is the module-wide fact store handed to analyzers that set
// NeedsFacts.
type Facts struct {
	pkgs  map[string]*PackageFacts
	order []string // package paths in processed (dependency) order
	funcs map[FuncID]*FuncSummary
}

// BuildFacts summarizes every package and propagates derived facts in
// dependency order.
func BuildFacts(pkgs []*Package) *Facts {
	f := &Facts{
		pkgs:  make(map[string]*PackageFacts),
		funcs: make(map[FuncID]*FuncSummary),
	}
	for _, path := range dependencyOrder(pkgs) {
		var pkg *Package
		for _, p := range pkgs {
			if p.Path == path {
				pkg = p
				break
			}
		}
		pf := summarize(pkg)
		f.pkgs[path] = pf
		f.order = append(f.order, path)
		for id, s := range pf.Funcs {
			f.funcs[id] = s
		}
		// Derived facts for this package: dependencies are final, so
		// only in-package cycles need iteration.
		f.propagateSentinelWrapped(pf)
	}
	return f
}

// Func returns the summary for id, or nil when the function is outside
// the analyzed set (another module, the stdlib, or not loaded).
func (f *Facts) Func(id FuncID) *FuncSummary {
	return f.funcs[id]
}

// Package returns one package's facts (nil when not loaded).
func (f *Facts) Package(path string) *PackageFacts {
	return f.pkgs[path]
}

// PackageOrder returns the dependency order the packages were
// processed in (dependencies before dependents).
func (f *Facts) PackageOrder() []string {
	return append([]string(nil), f.order...)
}

// Funcs returns every summarized function, sorted by ID.
func (f *Facts) Funcs() []*FuncSummary {
	ids := make([]string, 0, len(f.funcs))
	for id := range f.funcs {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	out := make([]*FuncSummary, len(ids))
	for i, id := range ids {
		out[i] = f.funcs[FuncID(id)]
	}
	return out
}

// dependencyOrder topologically sorts the packages: imports first,
// dependents after. Ties break by path so the order is deterministic
// regardless of input order. Packages whose imports lie outside the
// set (stdlib, unloaded) are unconstrained by those imports.
func dependencyOrder(pkgs []*Package) []string {
	inSet := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		inSet[p.Path] = p
	}
	// deps[path] = in-set packages path imports.
	deps := make(map[string][]string, len(pkgs))
	for _, p := range pkgs {
		seen := map[string]bool{}
		if p.Types != nil {
			for _, imp := range p.Types.Imports() {
				if _, ok := inSet[imp.Path()]; ok && !seen[imp.Path()] {
					seen[imp.Path()] = true
					deps[p.Path] = append(deps[p.Path], imp.Path())
				}
			}
		}
		sort.Strings(deps[p.Path])
	}
	var order []string
	state := make(map[string]int, len(pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		if state[path] != 0 {
			return
		}
		state[path] = 1
		for _, d := range deps[path] {
			visit(d)
		}
		state[path] = 2
		order = append(order, path)
	}
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		visit(path)
	}
	return order
}

// propagateSentinelWrapped falsifies SentinelWrapped for functions with
// an unwrapped error return or a dependency on a non-wrapped callee.
// Callees outside the analyzed set have no facts; their errors carry
// whatever identity they carry, so Deps on them are trusted (the
// boundary wrap is the analyzer's concern, not the fact's).
func (f *Facts) propagateSentinelWrapped(pf *PackageFacts) {
	for changed := true; changed; {
		changed = false
		for _, s := range pf.Funcs {
			if !s.SentinelWrapped {
				continue
			}
			for _, r := range s.ErrReturns {
				if !s.SentinelWrapped {
					break
				}
				switch r.Kind {
				case ErrReturnUnwrapped:
					s.SentinelWrapped = false
					changed = true
				case ErrReturnDeps:
					for _, dep := range r.Deps {
						if ds := f.funcs[dep]; ds != nil && !ds.SentinelWrapped {
							s.SentinelWrapped = false
							changed = true
							break
						}
					}
				}
			}
		}
	}
}
