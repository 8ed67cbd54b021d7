package lint_test

import (
	"go/ast"
	"strings"
	"testing"

	"flowdiff/internal/lint"
)

// noprint is a toy analyzer for framework tests: it flags every call to
// fmt.Println, which makes suppression behavior trivial to pin down.
var noprint = &lint.Analyzer{
	Name: "noprint",
	Doc:  "test-only: flags fmt.Println",
	Run: func(pass *lint.Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "fmt" && sel.Sel.Name == "Println" {
					pass.Reportf(sel.Pos(), "fmt.Println called")
				}
				return true
			})
		}
	},
}

func loadTestdata(t *testing.T, dir string) *lint.Package {
	t.Helper()
	loader := lint.NewLoader()
	pkg, err := loader.LoadDir(dir, "flowdiff/internal/example/"+dir)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// lineOf maps each diagnostic to its source line for position-based
// assertions.
func linesOf(diags []lint.Diagnostic, analyzer string) map[int]bool {
	out := make(map[int]bool)
	for _, d := range diags {
		if d.Analyzer == analyzer {
			out[d.Position.Line] = true
		}
	}
	return out
}

func TestIgnoreScopedToNextStatementOnly(t *testing.T) {
	pkg := loadTestdata(t, "testdata/src/ignorescope")
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("testdata must type-check: %v", pkg.TypeErrors[0])
	}
	diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{noprint})

	lines := linesOf(diags, "noprint")
	// Suppressed: the statement directly below a directive (line 9),
	// the inline-annotated line (14), and the multi-line statement below
	// its directive (20, diagnostic inside the if body).
	for _, suppressed := range []int{9, 20} {
		if lines[suppressed] {
			t.Errorf("line %d: diagnostic survived a directive that covers it", suppressed)
		}
	}
	if lines[14] {
		t.Error("line 14: inline directive did not suppress its own line")
	}
	// Reported: the second statement after a directive (10), the first
	// statement after a multi-line suppressed one (22), a directive
	// detached by a blank line (28), and a non-matching analyzer name (33).
	for _, reported := range []int{10, 22, 28, 33} {
		if !lines[reported] {
			t.Errorf("line %d: expected a diagnostic (suppression must cover the next statement only)", reported)
		}
	}
	// The reason-less directive is itself malformed AND suppresses
	// nothing: line 38 stays reported and a lintdirective diagnostic
	// appears.
	if !lines[38] {
		t.Error("line 38: a directive without a reason must not suppress")
	}
	foundMalformed := false
	for _, d := range diags {
		if d.Analyzer == "lintdirective" && strings.Contains(d.Message, "malformed") {
			foundMalformed = true
		}
	}
	if !foundMalformed {
		t.Error("expected a lintdirective diagnostic for the reason-less ignore")
	}
}

func TestCollectDirectives(t *testing.T) {
	pkg := loadTestdata(t, "testdata/src/ignorescope")
	dirs := lint.CollectDirectives([]*lint.Package{pkg})
	if len(dirs) != 6 {
		t.Fatalf("CollectDirectives: got %d directives, want 6", len(dirs))
	}
	byLine := make(map[int]lint.Directive)
	for _, d := range dirs {
		byLine[d.Line] = d
	}
	if d := byLine[8]; d.Inline || d.Malformed || len(d.Analyzers) != 1 || d.Analyzers[0] != "noprint" ||
		!strings.Contains(d.Reason, "only the next statement") {
		t.Errorf("line 8 directive parsed wrong: %+v", d)
	}
	if d := byLine[14]; !d.Inline {
		t.Errorf("line 14 directive should be inline: %+v", d)
	}
	if d := byLine[32]; len(d.Analyzers) != 1 || d.Analyzers[0] != "someothercheck" {
		t.Errorf("line 32 directive should surface the unknown name verbatim: %+v", d)
	}
	if d := byLine[37]; !d.Malformed {
		t.Errorf("line 37 reason-less directive should be malformed: %+v", d)
	}
	for i := 1; i < len(dirs); i++ {
		if dirs[i-1].Line > dirs[i].Line {
			t.Fatal("directives must come back sorted by line")
		}
	}
}

func TestLoaderSurvivesTypeError(t *testing.T) {
	pkg := loadTestdata(t, "testdata/src/typeerror")
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("expected type errors from the broken package")
	}
	// Running analyzers over the broken package must not panic, must
	// surface the type error as a "typecheck" diagnostic, and must still
	// deliver analyzer findings from the parts that type-check.
	diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{noprint})
	var sawTypecheck, sawNoprint bool
	for _, d := range diags {
		switch d.Analyzer {
		case "typecheck":
			sawTypecheck = true
		case "noprint":
			sawNoprint = true
		}
	}
	if !sawTypecheck {
		t.Error("type error was not surfaced as a typecheck diagnostic")
	}
	if !sawNoprint {
		t.Error("analyzers did not run over the partially checked package")
	}
}
