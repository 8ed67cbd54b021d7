// Ignore directives: `//lint:ignore <analyzer>[,<analyzer>] <reason>`
// suppresses matching diagnostics for the statement (or declaration) that
// starts on the line immediately below the directive, or — when the
// directive trails code on its own line — for that line. The reason is
// mandatory: an unexplained suppression is itself reported. "all" matches
// every analyzer.
package lint

import (
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"
)

const ignorePrefix = "//lint:ignore"

// A Directive is one parsed //lint:ignore comment, surfaced by the
// -ignores audit mode so suppressions stay reviewable instead of
// accreting silently.
type Directive struct {
	File      string
	Line      int
	Inline    bool     // shares its line with the code it suppresses
	Analyzers []string // names before the reason; empty when malformed
	Reason    string
	Malformed bool

	pos token.Pos
}

// CollectDirectives parses every //lint:ignore directive in pkgs,
// sorted by file then line. Files shared between packages (none today,
// but test overlays can alias them) are deduplicated.
func CollectDirectives(pkgs []*Package) []Directive {
	var out []Directive
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			if seen[name] {
				continue
			}
			seen[name] = true
			out = append(out, fileDirectives(pkg.Fset, f)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// fileDirectives parses the //lint:ignore directives of one file, in
// source order. This is the one parser of the directive grammar: the
// audit and the suppression set both read its output.
func fileDirectives(fset *token.FileSet, f *ast.File) []Directive {
	var out []Directive
	codeLines := codeLineSet(fset, f)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			d := Directive{File: pos.Filename, Line: pos.Line, Inline: codeLines[pos.Line], pos: c.Pos()}
			fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
			if len(fields) < 2 {
				d.Malformed = true
			} else {
				for _, name := range strings.Split(fields[0], ",") {
					if name = strings.TrimSpace(name); name != "" {
						d.Analyzers = append(d.Analyzers, name)
					}
				}
				d.Reason = strings.Join(fields[1:], " ")
			}
			out = append(out, d)
		}
	}
	return out
}

// ignoreDirective is a well-formed directive resolved to the lines it
// covers.
type ignoreDirective struct {
	Directive
	// [from, to] line range covered by the next statement (exclusive of
	// anything after it); zero when no statement follows.
	from, to int
}

type ignoreSet struct {
	directives []ignoreDirective
	malformed  []Diagnostic
}

func (s *ignoreSet) suppresses(d Diagnostic) bool {
	for _, dir := range s.directives {
		if dir.File != d.Position.Filename {
			continue
		}
		if !slices.Contains(dir.Analyzers, "all") && !slices.Contains(dir.Analyzers, d.Analyzer) {
			continue
		}
		if dir.Inline && d.Position.Line == dir.Line {
			return true
		}
		if !dir.Inline && dir.from > 0 && d.Position.Line >= dir.from && d.Position.Line <= dir.to {
			return true
		}
	}
	return false
}

// collectIgnores builds the package's suppression set from its parsed
// directives, resolving the statement each one covers. A malformed
// directive suppresses nothing and is itself reported.
func collectIgnores(fset *token.FileSet, files []*ast.File) *ignoreSet {
	set := &ignoreSet{}
	for _, f := range files {
		for _, d := range fileDirectives(fset, f) {
			if d.Malformed {
				set.malformed = append(set.malformed, Diagnostic{
					Analyzer: "lintdirective",
					Pos:      d.pos,
					Position: fset.Position(d.pos),
					Message:  "malformed //lint:ignore: want analyzer list and a reason",
				})
				continue
			}
			dir := ignoreDirective{Directive: d}
			if !d.Inline {
				dir.from, dir.to = nextStatementExtent(fset, f, d.Line)
			}
			set.directives = append(set.directives, dir)
		}
	}
	return set
}

// codeLineSet returns the set of lines on which a non-comment node
// starts, used to tell inline directives from whole-line ones.
func codeLineSet(fset *token.FileSet, f *ast.File) map[int]bool {
	codeLines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, isComment := n.(*ast.Comment); isComment {
			return true
		}
		if _, isGroup := n.(*ast.CommentGroup); isGroup {
			return true
		}
		codeLines[fset.Position(n.Pos()).Line] = true
		return true
	})
	return codeLines
}

// nextStatementExtent finds the statement or declaration whose first line
// is the line directly below the directive and returns its line span.
// A blank line between the directive and the code detaches it — the
// suppression is scoped to the next statement only, never "somewhere
// further down the file".
func nextStatementExtent(fset *token.FileSet, f *ast.File, line int) (from, to int) {
	var best ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n.(type) {
		case ast.Stmt, ast.Decl, *ast.Field:
		default:
			return true
		}
		start := fset.Position(n.Pos()).Line
		if start != line+1 {
			return true
		}
		if best == nil || n.Pos() < best.Pos() ||
			(n.Pos() == best.Pos() && n.End() > best.End()) {
			best = n
		}
		return true
	})
	if best == nil {
		return 0, 0
	}
	return fset.Position(best.Pos()).Line, fset.Position(best.End()).Line
}
