package checks

import (
	"go/token"
	"sort"

	"flowdiff/internal/lint"
)

// ObsSpanRoots maps each instrumented pipeline root (by FuncID) to the
// span names a call into it must be able to reach — the contract that
// keeps the obs timeline complete enough to diagnose a run. The table
// is a variable so the analyzer's tests can swap in fixture roots.
var ObsSpanRoots = map[string][]string{
	"flowdiff.BuildSignatures":       buildSpans,
	"flowdiff.BuildSignaturesReader": buildSpans,
	"flowdiff.Compare": {
		"flowdiff.compare",
		"flowdiff.build",
		"diff.compare",
		"diagnose.tally",
	},
	"flowdiff.Diff": {
		"diff.compare",
	},
	"flowdiff.Diagnose": {
		"diagnose.tally",
	},
	"(*flowdiff.Monitor).Flush": {
		"monitor.flush",
	},
}

// buildSpans is what the modeling phase promises, whichever entry point
// the events came in through.
var buildSpans = []string{
	"flowdiff.build",
	"signature.extract",
	"signature.groups",
	"signature.app",
	"signature.infra",
	"signature.stability",
}

// ObsSpan guards the observability contract: span names are a static
// registry. Every obs.Span / Registry.Span call must pass a
// compile-time constant name, each name must be opened from exactly one
// function module-wide (so a timeline entry maps back to one stage),
// and every instrumented pipeline root in ObsSpanRoots must reach an
// open of each span name its documentation promises.
var ObsSpan = &lint.Analyzer{
	Name:          "obsspan",
	Doc:           "flags dynamic or duplicated span names and instrumented pipeline roots that no longer reach their promised spans",
	SkipTestFiles: true,
	NeedsFacts:    true,
	Run:           runObsSpan,
}

func runObsSpan(pass *lint.Pass) {
	if pass.Pkg == nil || pass.Facts == nil || pass.Graph == nil {
		return
	}
	path := pass.Pkg.Path()

	// Module-wide span sites, grouped by name; diagnostics are emitted
	// only for sites in the current package so each fires exactly once.
	type site struct {
		pos  token.Pos
		fn   *lint.FuncSummary
		posn token.Position
	}
	byName := make(map[string][]site)
	for _, s := range pass.Facts.Funcs() {
		for _, sp := range s.Spans {
			if sp.Dynamic {
				if s.Pkg == path {
					pass.Reportf(sp.Pos, "span name is not a compile-time constant: the obs registry must be static")
				}
				continue
			}
			byName[sp.Name] = append(byName[sp.Name], site{sp.Pos, s, pass.Fset.Position(sp.Pos)})
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sites := byName[name]
		if len(sites) < 2 {
			continue
		}
		sort.Slice(sites, func(i, j int) bool {
			if sites[i].posn.Filename != sites[j].posn.Filename {
				return sites[i].posn.Filename < sites[j].posn.Filename
			}
			return sites[i].posn.Offset < sites[j].posn.Offset
		})
		for _, dup := range sites[1:] {
			if dup.fn.Pkg != path {
				continue
			}
			pass.Reportf(dup.pos, "span name %q is already opened by %s: registry names must be unique module-wide", name, sites[0].fn.ID)
		}
	}

	// Coverage: each root declared in this package must reach every span
	// its table entry promises.
	roots := make([]string, 0, len(ObsSpanRoots))
	for root := range ObsSpanRoots {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	for _, root := range roots {
		s := pass.Facts.Func(lint.FuncID(root))
		if s == nil || s.Pkg != path {
			continue
		}
		reach := pass.Graph.Reachable(lint.FuncID(root))
		opened := make(map[string]bool)
		for id := range reach {
			for _, sp := range pass.Facts.Func(id).Spans {
				if !sp.Dynamic {
					opened[sp.Name] = true
				}
			}
		}
		for _, want := range ObsSpanRoots[root] {
			if !opened[want] {
				pass.Reportf(s.Pos, "instrumented root %s no longer reaches an open of span %q promised by the obs registry", root, want)
			}
		}
	}
}
