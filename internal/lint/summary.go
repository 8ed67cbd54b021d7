// Function summaries: the per-function facts the interprocedural
// analyzers consume. One FuncSummary is extracted per declared function
// (methods included); function literals fold into their enclosing
// declaration — a call made inside a closure, a `parallel.ForContext`
// worker body, or a `go func(){...}` is attributed to the function that
// lexically contains it, which is the reachability notion the callers
// of the fact store care about.
//
// Summaries are deliberately syntactic + type-directed, never
// path-sensitive: they record what a function *can* do (calls it
// contains, spans it opens, errors it returns), and the analyzers
// over-approximate from there. The escape hatch for the resulting false
// positives is the usual reasoned `//lint:ignore`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A FuncID names one function uniquely across the module, in the
// types.Func.FullName form: "pkg/path.Func", "(pkg/path.T).M", or
// "(*pkg/path.T).M". The string form survives the loader's duplicated
// type-check universes (an import and its own analysis package are
// distinct types.Package objects for the same source), which object
// identity does not.
type FuncID string

// A Call records one outgoing call edge of a function. A function
// referenced as a value (method value, function passed as an argument)
// is recorded as a call too: the graph treats it as a potential one.
type Call struct {
	Callee FuncID
	// Iface is set for calls through an interface; Callee is then empty
	// and the graph resolves the edge against the module's type facts.
	Iface *IfaceCall
}

// An IfaceCall describes a call through an interface method by the
// interface's full method set, each method as a package-qualified
// signature string. Resolution is structural (name + signature match
// over the module's type facts), so it is independent of the loader's
// per-package type universes.
type IfaceCall struct {
	// Method is the called method's name.
	Method string
	// MethodSet is the interface's complete method set, sorted by name.
	MethodSet []MethodSig
}

// A MethodSig is one method name with its package-qualified signature
// string (receiver excluded).
type MethodSig struct {
	Name string
	Sig  string
}

// A SpanOpen records one obs.Span call.
type SpanOpen struct {
	Pos  token.Pos
	Name string
	// Dynamic: the span name is not a compile-time string constant.
	Dynamic bool
}

// ErrReturnKind classifies one error-returning return statement.
type ErrReturnKind int

const (
	// ErrReturnWrapped: fmt.Errorf with %w wrapping a package-level
	// error variable (a sentinel with a stable errors.Is identity).
	ErrReturnWrapped ErrReturnKind = iota
	// ErrReturnDeps: the error propagates from callees (directly or via
	// a local variable); wrappedness is decided by the callees' facts.
	ErrReturnDeps
	// ErrReturnUnwrapped: an error with no errors.Is-matchable identity
	// crosses the return (ad-hoc errors.New, fmt.Errorf without %w,
	// unknown origin).
	ErrReturnUnwrapped
)

// An ErrReturn summarizes the error result of one return statement.
type ErrReturn struct {
	Pos  token.Pos
	Kind ErrReturnKind
	// Desc explains an Unwrapped classification.
	Desc string
	// Deps: the callees this return's error may originate from.
	Deps []FuncID
}

// A FuncSummary is the complete per-function fact record.
type FuncSummary struct {
	ID       FuncID
	Pkg      string
	Pos      token.Pos
	Exported bool
	// ReturnsError: some result implements error.
	ReturnsError bool
	Calls        []Call
	Spans        []SpanOpen
	ErrReturns   []ErrReturn
	// SentinelWrapped: every error return is Wrapped or propagates from
	// sentinel-wrapped callees. Computed by the fact store's fixpoint;
	// true until falsified.
	SentinelWrapped bool
}

// TypeFacts records one named type's method set for structural
// interface resolution.
type TypeFacts struct {
	// FullName is "pkg/path.TypeName".
	FullName string
	Pkg      string
	// Methods maps method name to its signature string and FuncID.
	Methods map[string]TypeMethod
}

// A TypeMethod is one method of a named type.
type TypeMethod struct {
	Sig string
	ID  FuncID
}

// PackageFacts bundles everything summarized from one package.
type PackageFacts struct {
	Path  string
	Funcs map[FuncID]*FuncSummary
	Types map[string]*TypeFacts
}

// sigQualifier renders package-qualified type strings that are stable
// across type-check universes.
func sigQualifier(p *types.Package) string { return p.Path() }

// returnsErrorType reports whether some result of sig implements error.
func returnsErrorType(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	errIface, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if t := res.At(i).Type(); t != nil && types.Implements(t, errIface) {
			return true
		}
	}
	return false
}

// summarize extracts the FuncSummary of every declared function in pkg
// and the TypeFacts of every named type, keyed for the fact store.
func summarize(pkg *Package) *PackageFacts {
	pf := &PackageFacts{
		Path:  pkg.Path,
		Funcs: make(map[FuncID]*FuncSummary),
		Types: make(map[string]*TypeFacts),
	}
	if pkg.Types != nil {
		collectTypeFacts(pkg.Types, pf)
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			s := summarizeFunc(pkg, fd)
			if s != nil {
				pf.Funcs[s.ID] = s
			}
		}
	}
	return pf
}

// collectTypeFacts records the method set of every named type declared
// at package scope.
func collectTypeFacts(p *types.Package, pf *PackageFacts) {
	scope := p.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		tf := &TypeFacts{
			FullName: p.Path() + "." + tn.Name(),
			Pkg:      p.Path(),
			Methods:  make(map[string]TypeMethod),
		}
		// The pointer method set is the superset (value methods are
		// promoted into it), and matches how implementations are passed
		// around in practice.
		mset := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < mset.Len(); i++ {
			m, ok := mset.At(i).Obj().(*types.Func)
			if !ok {
				continue
			}
			sig, _ := m.Type().(*types.Signature)
			tf.Methods[m.Name()] = TypeMethod{
				Sig: types.TypeString(stripRecv(sig), sigQualifier),
				ID:  FuncID(m.FullName()),
			}
		}
		pf.Types[tf.FullName] = tf
	}
}

// stripRecv drops the receiver so implementation and interface method
// signatures compare equal as strings.
func stripRecv(sig *types.Signature) *types.Signature {
	if sig == nil {
		return nil
	}
	return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
}

// funcObjOf resolves the *types.Func a call or reference targets, or
// nil for builtins, conversions, and unresolved expressions.
func funcObjOf(pkg *Package, fun ast.Expr) *types.Func {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.TypesInfo.Uses[e].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[e]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified reference: pkg.F.
		if fn, ok := pkg.TypesInfo.Uses[e.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// summarizeFunc builds one function's summary, folding the bodies of
// every nested function literal into it.
func summarizeFunc(pkg *Package, fd *ast.FuncDecl) *FuncSummary {
	obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return nil
	}
	sig, _ := obj.Type().(*types.Signature)
	s := &FuncSummary{
		ID:              FuncID(obj.FullName()),
		Pkg:             pkg.Path,
		Pos:             fd.Pos(),
		Exported:        fd.Name.IsExported(),
		ReturnsError:    returnsErrorType(sig),
		SentinelWrapped: true,
	}

	// First pass: collect every call (and standalone function-value
	// reference), remembering which expressions are call-Fun positions
	// so they are not double-counted as value references.
	callFuns := make(map[ast.Expr]bool)
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callFuns[ast.Unparen(call.Fun)] = true
		if c := summarizeCall(pkg, call); c != nil {
			s.Calls = append(s.Calls, *c)
		}
		return true
	})
	// Function-value references outside call position. Selector .Sel
	// idents are excluded from the Ident case so a reference is counted
	// once, at the selector that resolves it.
	selSels := make(map[*ast.Ident]bool)
	ast.Inspect(fd, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			selSels[sel.Sel] = true
		}
		return true
	})
	recordRef := func(fn *types.Func) {
		s.Calls = append(s.Calls, Call{Callee: FuncID(fn.FullName())})
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.Ident:
			if callFuns[ast.Expr(e)] || selSels[e] {
				return true
			}
			if fn, ok := pkg.TypesInfo.Uses[e].(*types.Func); ok {
				recordRef(fn)
			}
		case *ast.SelectorExpr:
			if callFuns[ast.Expr(e)] {
				return true
			}
			if fn := funcObjOf(pkg, e); fn != nil {
				recordRef(fn)
			}
		}
		return true
	})

	collectSpans(pkg, fd, s)
	collectErrReturns(pkg, fd, sig, s)
	return s
}

// summarizeCall classifies one call expression: resolved static target,
// interface dispatch, or nothing (builtin / conversion / closure var).
func summarizeCall(pkg *Package, call *ast.CallExpr) *Call {
	// Conversions are not calls.
	if tv, ok := pkg.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	// Interface dispatch first: a selector whose receiver is
	// interface-typed resolves to the interface method object, which
	// must become an expandable edge, not a static one.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection, ok := pkg.TypesInfo.Selections[sel]; ok {
			if iface, ok := selection.Recv().Underlying().(*types.Interface); ok {
				fn, _ := selection.Obj().(*types.Func)
				if fn == nil {
					return nil
				}
				return &Call{Iface: &IfaceCall{
					Method:    fn.Name(),
					MethodSet: methodSetOf(iface),
				}}
			}
		}
	}
	if fn := funcObjOf(pkg, call.Fun); fn != nil {
		return &Call{Callee: FuncID(fn.FullName())}
	}
	return nil
}

// methodSetOf renders an interface's method set as sorted
// name+signature pairs.
func methodSetOf(iface *types.Interface) []MethodSig {
	var out []MethodSig
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		sig, _ := m.Type().(*types.Signature)
		out = append(out, MethodSig{
			Name: m.Name(),
			Sig:  types.TypeString(stripRecv(sig), sigQualifier),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// spanFuncs: the obs.Span entry points, by FullName.
var spanFuncs = map[string]int{
	"flowdiff/internal/obs.Span":             1, // Span(ctx, name)
	"(*flowdiff/internal/obs.Registry).Span": 0, // r.Span(name)
}

// collectSpans records every obs.Span call with its literal stage name.
func collectSpans(pkg *Package, fd *ast.FuncDecl, s *FuncSummary) {
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcObjOf(pkg, call.Fun)
		if fn == nil {
			return true
		}
		argIdx, ok := spanFuncs[fn.FullName()]
		if !ok || len(call.Args) <= argIdx {
			return true
		}
		open := SpanOpen{Pos: call.Pos()}
		if tv, ok := pkg.TypesInfo.Types[call.Args[argIdx]]; ok && tv.Value != nil {
			open.Name = strings.Trim(tv.Value.String(), `"`)
		} else {
			open.Dynamic = true
		}
		s.Spans = append(s.Spans, open)
		return true
	})
}

// objectFor resolves id to its object via Uses or Defs.
func objectFor(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pkg.TypesInfo.Defs[id]
}

// collectErrReturns classifies every error-returning return statement.
func collectErrReturns(pkg *Package, fd *ast.FuncDecl, sig *types.Signature, s *FuncSummary) {
	if !s.ReturnsError || sig == nil {
		return
	}
	errIface, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	isErr := func(t types.Type) bool {
		return t != nil && errIface != nil && types.Implements(t, errIface)
	}

	// Variable bindings: err-typed idents assigned from calls anywhere
	// in the function.
	varDeps := make(map[types.Object][]FuncID)
	varUnknown := make(map[types.Object]string)
	noteBinding := func(obj types.Object, rhs ast.Expr) {
		cls := classifyErrExpr(pkg, rhs, isErr, nil, nil)
		switch cls.Kind {
		case ErrReturnWrapped:
			// A wrapped binding never taints the variable.
		case ErrReturnDeps:
			varDeps[obj] = append(varDeps[obj], cls.Deps...)
		default:
			if _, seen := varUnknown[obj]; !seen {
				varUnknown[obj] = cls.Desc
			}
		}
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := objectFor(pkg, id)
			if obj == nil || !isErr(obj.Type()) {
				continue
			}
			var rhs ast.Expr
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			} else if len(as.Rhs) == 1 {
				rhs = as.Rhs[0]
			}
			if rhs != nil {
				noteBinding(obj, rhs)
			}
		}
		return true
	})

	// Named error results, for bare `return`.
	var namedErrs []types.Object
	if res := sig.Results(); res != nil {
		for i := 0; i < res.Len(); i++ {
			v := res.At(i)
			if v.Name() != "" && isErr(v.Type()) {
				namedErrs = append(namedErrs, v)
			}
		}
	}

	ast.Inspect(fd, func(n ast.Node) bool {
		// Only returns belonging to fd's own result shape matter;
		// closure returns with error results are rare enough to fold in
		// (over-approximation, suppressible).
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		record := func(cls ErrReturn) {
			cls.Pos = ret.Pos()
			s.ErrReturns = append(s.ErrReturns, cls)
		}
		if len(ret.Results) == 0 {
			for _, obj := range namedErrs {
				if deps, ok := varDeps[obj]; ok {
					record(ErrReturn{Kind: ErrReturnDeps, Deps: deps})
				}
				if desc, ok := varUnknown[obj]; ok {
					record(ErrReturn{Kind: ErrReturnUnwrapped, Desc: desc})
				}
			}
			return true
		}
		for _, res := range ret.Results {
			t := pkg.TypesInfo.TypeOf(res)
			// return f(...) with f returning (T, error): the call's error
			// element is what crosses the return.
			if tuple, ok := t.(*types.Tuple); ok {
				t = tuple.At(tuple.Len() - 1).Type()
			}
			if !isErr(t) {
				continue
			}
			record(classifyErrExpr(pkg, res, isErr, varDeps, varUnknown))
		}
		return true
	})
}

// classifyErrExpr classifies one error-typed expression. varDeps and
// varUnknown may be nil (binding-time classification).
func classifyErrExpr(pkg *Package, e ast.Expr, isErr func(types.Type) bool, varDeps map[types.Object][]FuncID, varUnknown map[types.Object]string) ErrReturn {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		if x.Name == "nil" {
			return ErrReturn{Kind: ErrReturnWrapped}
		}
		obj := objectFor(pkg, x)
		if obj == nil {
			return ErrReturn{Kind: ErrReturnUnwrapped, Desc: "error of unknown origin"}
		}
		// A package-level error variable is itself a sentinel.
		if isPkgLevelErrVar(obj, isErr) {
			return ErrReturn{Kind: ErrReturnWrapped}
		}
		if varDeps != nil {
			deps, hasDeps := varDeps[obj]
			desc, hasUnknown := varUnknown[obj]
			switch {
			case hasUnknown:
				return ErrReturn{Kind: ErrReturnUnwrapped, Desc: desc}
			case hasDeps:
				return ErrReturn{Kind: ErrReturnDeps, Deps: deps}
			}
		}
		return ErrReturn{Kind: ErrReturnUnwrapped, Desc: fmt.Sprintf("error %q of unknown origin", x.Name)}
	case *ast.CallExpr:
		fn := funcObjOf(pkg, x.Fun)
		if fn == nil {
			return ErrReturn{Kind: ErrReturnUnwrapped, Desc: "error from unresolved call"}
		}
		full := fn.FullName()
		switch full {
		case "errors.New":
			return ErrReturn{Kind: ErrReturnUnwrapped, Desc: "ad-hoc errors.New has no errors.Is identity"}
		case "fmt.Errorf":
			return classifyErrorf(pkg, x, isErr, varDeps, varUnknown)
		}
		return ErrReturn{Kind: ErrReturnDeps, Deps: []FuncID{FuncID(full)}}
	case *ast.SelectorExpr:
		if fn := funcObjOf(pkg, x); fn != nil {
			// Method value: unusual; treat as dep.
			return ErrReturn{Kind: ErrReturnDeps, Deps: []FuncID{FuncID(fn.FullName())}}
		}
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := objectFor(pkg, id).(*types.PkgName); isPkg {
				if obj := objectFor(pkg, x.Sel); obj != nil && isPkgLevelErrVar(obj, isErr) {
					return ErrReturn{Kind: ErrReturnWrapped}
				}
			}
		}
		return ErrReturn{Kind: ErrReturnUnwrapped, Desc: "error from struct field or selector"}
	}
	return ErrReturn{Kind: ErrReturnUnwrapped, Desc: "error of unknown origin"}
}

// isPkgLevelErrVar reports whether obj is a package-scope variable of
// error type — a sentinel identity errors.Is can match.
func isPkgLevelErrVar(obj types.Object, isErr func(types.Type) bool) bool {
	v, ok := obj.(*types.Var)
	if !ok || !isErr(v.Type()) {
		return false
	}
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// classifyErrorf handles fmt.Errorf: %w with a sentinel operand is
// Wrapped, %w propagating callee errors is Deps, no %w is Unwrapped.
func classifyErrorf(pkg *Package, call *ast.CallExpr, isErr func(types.Type) bool, varDeps map[types.Object][]FuncID, varUnknown map[types.Object]string) ErrReturn {
	if len(call.Args) == 0 {
		return ErrReturn{Kind: ErrReturnUnwrapped, Desc: "fmt.Errorf with no format"}
	}
	format := ""
	if tv, ok := pkg.TypesInfo.Types[call.Args[0]]; ok && tv.Value != nil {
		format = tv.Value.String()
	}
	if !strings.Contains(format, "%w") {
		return ErrReturn{Kind: ErrReturnUnwrapped, Desc: "fmt.Errorf without %w breaks the errors.Is chain"}
	}
	var deps []FuncID
	for _, arg := range call.Args[1:] {
		t := pkg.TypesInfo.TypeOf(arg)
		if !isErr(t) {
			continue
		}
		cls := classifyErrExpr(pkg, arg, isErr, varDeps, varUnknown)
		switch cls.Kind {
		case ErrReturnWrapped:
			// One sentinel operand is enough: the chain carries a
			// stable identity.
			return ErrReturn{Kind: ErrReturnWrapped}
		case ErrReturnDeps:
			deps = append(deps, cls.Deps...)
		}
	}
	if len(deps) > 0 {
		return ErrReturn{Kind: ErrReturnDeps, Deps: deps}
	}
	return ErrReturn{Kind: ErrReturnUnwrapped, Desc: "fmt.Errorf %w operand has no errors.Is identity"}
}
