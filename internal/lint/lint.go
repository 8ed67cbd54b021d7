// Package lint is a minimal, stdlib-only static-analysis framework in
// the shape of golang.org/x/tools/go/analysis: an Analyzer owns a Run
// function over a typed Pass, diagnostics are reported through the pass,
// and `//lint:ignore <analyzers> <reason>` directives suppress findings
// for the statement that follows them.
//
// FlowDiff uses it to machine-check the invariants its reports rest on
// that go vet and the race detector cannot see (map-order-free output,
// virtual-time-only simulation, epsilon-based float comparison,
// sentinel identities on public errors, a static span table); the
// concrete analyzers live in internal/lint/checks and the CLI driver in
// cmd/flowdifflint.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant it guards.
	Doc string
	// SkipTestFiles drops diagnostics located in _test.go files. Checks
	// whose violations are idiomatic in tests (exact expected-value float
	// comparisons, deliberately discarded errors) set this.
	SkipTestFiles bool
	// NeedsFacts: the analyzer consumes the module-wide fact store
	// (function summaries + call graph). The driver builds the store
	// once per run, before any analyzer executes, and hands it to every
	// pass via Pass.Facts/Pass.Graph.
	NeedsFacts bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts and Graph are non-nil when the analyzer sets NeedsFacts:
	// the summaries of every loaded package and the resolved call graph
	// over them.
	Facts *Facts
	Graph *Graph

	report func(Diagnostic)
}

// Report records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil when the expression did not
// type-check (analyzers must stay useful on broken packages).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.TypesInfo == nil {
		return nil
	}
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf resolves an identifier to its object (nil when unresolved).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.TypesInfo == nil {
		return nil
	}
	if o := p.TypesInfo.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer)
}

// An AnalyzerTiming is one analyzer's cumulative wall time across every
// package in a run. The pseudo-entry "(facts)" reports the one-time
// summary + call-graph build shared by every facts-consuming analyzer.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// Run applies every analyzer to every package, filters the findings
// through the packages' ignore directives, and returns them sorted by
// position. Type errors recorded by the loader are surfaced as
// diagnostics of the pseudo-analyzer "typecheck" so a broken package
// fails the lint run visibly instead of being half-analyzed in silence.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunModule(pkgs, analyzers)
	return diags
}

// RunModule is Run plus per-analyzer wall-time accounting, and is the
// entry point that builds the interprocedural fact store when any
// analyzer asks for it.
func RunModule(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerTiming) {
	var (
		facts *Facts
		graph *Graph
	)
	elapsed := make(map[string]time.Duration)
	var order []string
	for _, a := range analyzers {
		if a.NeedsFacts && facts == nil {
			start := time.Now()
			facts = BuildFacts(pkgs)
			graph = NewGraph(facts)
			elapsed["(facts)"] = time.Since(start)
			order = append(order, "(facts)")
		}
		if _, ok := elapsed[a.Name]; !ok {
			elapsed[a.Name] = 0
			order = append(order, a.Name)
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg.Fset, pkg.Files)
		for _, te := range pkg.TypeErrors {
			d := Diagnostic{Analyzer: "typecheck", Message: te.Error()}
			if terr, ok := te.(types.Error); ok {
				d.Pos = terr.Pos
				d.Position = terr.Fset.Position(terr.Pos)
				d.Message = terr.Msg
			}
			diags = append(diags, d)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Facts:     facts,
				Graph:     graph,
			}
			pass.report = func(d Diagnostic) {
				if a.SkipTestFiles && strings.HasSuffix(d.Position.Filename, "_test.go") {
					return
				}
				if ignores.suppresses(d) {
					return
				}
				diags = append(diags, d)
			}
			start := time.Now()
			a.Run(pass)
			elapsed[a.Name] += time.Since(start)
		}
		diags = append(diags, ignores.malformed...)
	}
	timings := make([]AnalyzerTiming, 0, len(order))
	for _, name := range order {
		timings = append(timings, AnalyzerTiming{Name: name, Elapsed: elapsed[name]})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, timings
}
