// Command flowdifflint runs FlowDiff's repo-specific static analyzers
// over the package patterns given on the command line (default ./...).
// It exits 1 when any diagnostic survives the //lint:ignore directives,
// so CI fails the moment a change breaks a determinism or concurrency
// invariant instead of waiting for a DeepEqual test to happen to cover
// the new code path.
//
// Usage:
//
//	flowdifflint [-json] [-time] [-list] [-ignores] [patterns...]
//
// Every analyzer runs, over production and _test.go files alike.
// -json emits the findings as a single JSON object on stdout (stable
// ordering, no timings) for machine consumers like scripts/ci.sh.
// -time prints per-analyzer wall time to stderr after the run.
// -list prints each analyzer's name and doc. -ignores audits every
// //lint:ignore directive instead of linting: each one is listed, and
// the run fails when a directive names an unknown analyzer or lacks a
// reason.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"flowdiff/internal/lint"
	"flowdiff/internal/lint/checks"
)

func main() {
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout")
	timing := flag.Bool("time", false, "print per-analyzer wall time to stderr")
	ignores := flag.Bool("ignores", false, "audit //lint:ignore directives and exit")
	flag.Parse()

	all := checks.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.NewLoader().Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *ignores {
		os.Exit(auditIgnores(pkgs, all))
	}

	diags, timings := lint.RunModule(pkgs, all)
	if *jsonOut {
		writeJSON(os.Stdout, diags)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *timing {
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "%-12s %v\n", t.Name, t.Elapsed.Round(10*time.Microsecond))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "flowdifflint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// auditIgnores lists every suppression in the loaded packages and
// returns the process exit code: 1 when any directive is malformed or
// names an analyzer that does not exist (a typo there would otherwise
// suppress nothing, silently).
func auditIgnores(pkgs []*lint.Package, all []*lint.Analyzer) int {
	known := map[string]bool{"all": true}
	for _, a := range all {
		known[a.Name] = true
	}
	dirs := lint.CollectDirectives(pkgs)
	bad := 0
	for _, d := range dirs {
		if d.Malformed {
			fmt.Printf("%s:%d: MALFORMED: want analyzer list and a reason\n", d.File, d.Line)
			bad++
			continue
		}
		for _, name := range d.Analyzers {
			if !known[name] {
				fmt.Printf("%s:%d: UNKNOWN analyzer %q\n", d.File, d.Line, name)
				bad++
			}
		}
		scope := "next-stmt"
		if d.Inline {
			scope = "inline"
		}
		fmt.Printf("%s:%d: [%s] (%s) %s\n", d.File, d.Line, joinNames(d.Analyzers), scope, d.Reason)
	}
	fmt.Fprintf(os.Stderr, "flowdifflint: %d ignore directive(s), %d problem(s)\n", len(dirs), bad)
	if bad > 0 {
		return 1
	}
	return 0
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ","
		}
		out += n
	}
	return out
}

// jsonFinding mirrors Diagnostic with stable, consumer-friendly field
// names. Timings are deliberately excluded: the JSON report must be
// byte-identical run to run so CI can diff it.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	Count    int           `json:"count"`
}

func writeJSON(w *os.File, diags []lint.Diagnostic) {
	rep := jsonReport{Findings: make([]jsonFinding, 0, len(diags)), Count: len(diags)}
	for _, d := range diags {
		rep.Findings = append(rep.Findings, jsonFinding{
			Analyzer: d.Analyzer,
			File:     d.Position.Filename,
			Line:     d.Position.Line,
			Column:   d.Position.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}
