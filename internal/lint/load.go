// Package loading: discovery via `go list -json`, parsing with
// go/parser, type-checking with go/types. Module-internal imports are
// type-checked recursively from source; stdlib imports go through the
// compiler "source" importer, so the loader needs no compiled export
// data and no dependencies outside the standard library.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("flowdifflint-testdata" paths for LoadDir)
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	// TypesInfo is populated even when type-checking failed partway;
	// analyzers must tolerate nil types for broken expressions.
	TypesInfo *types.Info
	// TypeErrors collects every type-checking error instead of aborting:
	// a package that no longer compiles should surface as diagnostics,
	// not as a linter crash.
	TypeErrors []error
}

// Loader loads and caches packages against one shared FileSet.
type Loader struct {
	Fset *token.FileSet
	// Dir is the working directory for go list (default: process cwd).
	Dir string

	std        types.Importer
	modulePath string
	// pure caches packages WITHOUT test files, keyed by import path;
	// these are what imports resolve to, so an augmented (test-including)
	// analysis package never leaks into its importers' view.
	pure map[string]*types.Package
	info map[string]*listInfo
}

// listInfo is the subset of `go list -json` output the loader consumes.
type listInfo struct {
	Dir          string
	ImportPath   string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Path string }
	Error        *struct{ Err string }
}

func NewLoader() *Loader {
	l := &Loader{
		Fset: token.NewFileSet(),
		pure: make(map[string]*types.Package),
		info: make(map[string]*listInfo),
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	return l
}

// Load expands the go list patterns (e.g. "./...") and returns one
// analysis Package per matched package, its in-package _test.go files
// included, plus one per external test package.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	infos, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, info := range infos {
		if info.Error != nil {
			return nil, fmt.Errorf("lint: go list %s: %s", info.ImportPath, info.Error.Err)
		}
		if info.Module != nil && l.modulePath == "" {
			l.modulePath = info.Module.Path
		}
		files := append(append([]string{}, info.GoFiles...), info.TestGoFiles...)
		if len(files) > 0 {
			pkg, err := l.check(info.ImportPath, info.Dir, files)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
		if len(info.XTestGoFiles) > 0 {
			pkg, err := l.check(info.ImportPath+"_test", info.Dir, info.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir loads every .go file in one directory as a single package under
// a caller-chosen import path. Analyzer tests use it to type-check
// testdata packages (which the go tool deliberately ignores) under
// pretend paths that exercise path-scoped analyzers.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	sort.Strings(files)
	pkg, err := l.check(importPath, dir, files)
	if err != nil {
		return nil, err
	}
	// Register clean packages as importable so a later LoadDir package
	// can import this one by its pretend path — the fixture mechanism
	// for cross-package fact-propagation tests.
	if len(pkg.TypeErrors) == 0 {
		l.pure[importPath] = pkg.Types
	}
	return pkg, nil
}

// check parses and type-checks one package. Parse errors abort (there is
// no AST to analyze); type errors are collected on the package.
func (l *Loader) check(importPath, dir string, fileNames []string) (*Package, error) {
	pkg := &Package{Path: importPath, Dir: dir, Fset: l.Fset}
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Name = pkg.Files[0].Name.Name
	pkg.TypesInfo = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: importerFunc(l.importPkg),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns the package even on error; errors are already in
	// pkg.TypeErrors via the Error hook.
	pkg.Types, _ = conf.Check(importPath, l.Fset, pkg.Files, pkg.TypesInfo)
	return pkg, nil
}

// importPkg resolves one import for the type checker: the pure cache
// first (module-internal packages already checked, and LoadDir
// packages registered under pretend paths — how multi-package testdata
// fixtures import each other), then module-internal packages
// recursively from source (without test files), everything else
// through the stdlib source importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pure[path]; ok {
		return p, nil
	}
	if l.inModule(path) {
		if p, ok := l.pure[path]; ok {
			return p, nil
		}
		info, err := l.listOne(path)
		if err != nil {
			return nil, err
		}
		pkg, err := l.check(path, info.Dir, info.GoFiles)
		if err != nil {
			return nil, err
		}
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("lint: %s: %v", path, pkg.TypeErrors[0])
		}
		l.pure[path] = pkg.Types
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) inModule(path string) bool {
	if l.modulePath == "" {
		return false
	}
	return path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")
}

func (l *Loader) goList(patterns ...string) ([]*listInfo, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var infos []*listInfo
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		info := new(listInfo)
		if err := dec.Decode(info); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		l.info[info.ImportPath] = info
		infos = append(infos, info)
	}
	return infos, nil
}

func (l *Loader) listOne(path string) (*listInfo, error) {
	if info, ok := l.info[path]; ok {
		return info, nil
	}
	infos, err := l.goList(path)
	if err != nil {
		return nil, err
	}
	if len(infos) != 1 {
		return nil, fmt.Errorf("lint: go list %s: %d packages", path, len(infos))
	}
	return infos[0], nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
