package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAllocPath checks functions annotated //wec:noalloc — the query hot
// path (serve.Engine.answer and dispatch, the conn QueryS/ConnectedS pair,
// the bicc scratch-taking queries, the decomp scratch BFS), which must
// allocate nothing per query in steady state, for allocation-shaped
// constructs:
//
//   - make / new, map and slice composite literals, &composite;
//   - append calls, unless dominated by a `len(x) < cap(x)` guard on the
//     same slice — as an if condition or a tagless switch case — the arena
//     idiom that provably cannot grow;
//   - boxing a non-pointer-shaped concrete value into an interface
//     (assignment, call argument, or conversion);
//   - string concatenation and string<->slice conversions;
//   - fmt.* / errors.* calls, taking the address of a local variable, and
//     escaping closures (a func literal that is returned or stored; one
//     passed directly as a call argument is presumed non-escaping).
//
// A construct that is deliberately off the steady-state path — an error
// branch, the cold nil-scratch mode, amortized high-water buffer growth —
// carries //wec:alloc <reason> on its line. The static rule is
// approximate in both directions (it cannot see escape analysis), so the
// testing.AllocsPerRun gate in internal/serve provides the runtime ground
// truth it is calibrated against.
var NoAllocPath = &Analyzer{
	Name: "noallocpath",
	Doc:  "//wec:noalloc functions must avoid allocation-shaped constructs or annotate them",
	Run:  runNoAllocPath,
}

func runNoAllocPath(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || FuncDirective(fn, DirNoAlloc) == nil {
				continue
			}
			checkNoAlloc(pass, fn)
		}
	}
	return nil
}

// checkNoAlloc walks fn's body with an ancestor stack (for the append
// guard and escape context checks).
func checkNoAlloc(pass *Pass, fn *ast.FuncDecl) {
	report := func(pos token.Pos, format string, args ...any) {
		if pass.Directives.At(pos, DirAlloc) != nil {
			return
		}
		pass.Reportf(pos, format, args...)
	}
	var results *types.Tuple
	if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
		results = obj.Signature().Results()
	}
	var stack []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, x, stack, report)
		case *ast.CompositeLit:
			switch types.Unalias(pass.TypesInfo.TypeOf(x)).Underlying().(type) {
			case *types.Slice:
				report(x.Pos(), "slice literal allocates on the //wec:noalloc path")
			case *types.Map:
				report(x.Pos(), "map literal allocates on the //wec:noalloc path")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				switch op := ast.Unparen(x.X).(type) {
				case *ast.CompositeLit:
					report(x.Pos(), "&composite literal escapes to the heap on the //wec:noalloc path")
				case *ast.Ident:
					if v, ok := pass.TypesInfo.Uses[op].(*types.Var); ok && !v.IsField() && v.Parent() != v.Pkg().Scope() {
						report(x.Pos(), "taking the address of local %s may force a heap allocation on the //wec:noalloc path", op.Name)
					}
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(pass.TypesInfo.TypeOf(x)) {
				report(x.Pos(), "string concatenation allocates on the //wec:noalloc path")
			}
		case *ast.GoStmt:
			report(x.Pos(), "go statement allocates a goroutine on the //wec:noalloc path")
		case *ast.FuncLit:
			if escapingFuncLit(stack) {
				report(x.Pos(), "stored or returned closure allocates on the //wec:noalloc path")
			}
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					checkBoxing(pass, pass.TypesInfo.TypeOf(lhs), x.Rhs[i], report)
				}
				break
			}
			// Multi-value assignment from one call. `:=` infers the exact
			// tuple types — no conversion, no boxing. Plain `=` into
			// pre-declared interface variables converts element-wise, so
			// check each tuple element type against its destination.
			if x.Tok == token.DEFINE || len(x.Rhs) != 1 {
				break
			}
			if tuple, ok := pass.TypesInfo.TypeOf(x.Rhs[0]).(*types.Tuple); ok {
				for i, lhs := range x.Lhs {
					if i < tuple.Len() {
						checkBoxingType(pass, pass.TypesInfo.TypeOf(lhs), tuple.At(i).Type(), x.Rhs[0].Pos(), report)
					}
				}
			}
		case *ast.ReturnStmt:
			// Skip FuncLit return statements: results belongs to fn itself.
			if results != nil && len(x.Results) == results.Len() && !insideFuncLit(stack) {
				for i, res := range x.Results {
					checkBoxing(pass, results.At(i).Type(), res, report)
				}
			}
		}
		return true
	}
	ast.Inspect(fn.Body, visit)
}

// insideFuncLit reports whether the stack top sits inside a func literal
// (whose return statements answer the literal's own signature).
func insideFuncLit(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		if _, ok := stack[i].(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// checkCall flags allocation-shaped calls: make/new, fmt/errors helpers,
// unguarded append, string<->slice conversions, and interface boxing of
// arguments.
func checkCall(pass *Pass, call *ast.CallExpr, stack []ast.Node, report func(token.Pos, string, ...any)) {
	// Conversions: T(x) with an allocating representation change.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			from := pass.TypesInfo.TypeOf(call.Args[0])
			switch {
			case types.IsInterface(to.Underlying()):
				checkBoxing(pass, to, call.Args[0], report)
			case isString(to) && !isString(from), !isString(to) && isString(from) && isSliceType(to):
				report(call.Pos(), "string/slice conversion allocates on the //wec:noalloc path")
			}
		}
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch pass.TypesInfo.Uses[fun] {
		case types.Universe.Lookup("make"):
			report(call.Pos(), "make allocates on the //wec:noalloc path")
			return
		case types.Universe.Lookup("new"):
			report(call.Pos(), "new allocates on the //wec:noalloc path")
			return
		case types.Universe.Lookup("append"):
			if !appendGuarded(call, stack) {
				report(call.Pos(), "append may grow its backing array on the //wec:noalloc path; guard with len < cap or annotate //wec:alloc")
			}
			return
		}
	}
	if name := calleeFullName(pass.TypesInfo, call); name != "" {
		if fn, ok := pass.TypesInfo.Uses[calleeIdent(call)].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "fmt", "errors":
				report(call.Pos(), "%s call allocates on the //wec:noalloc path", name)
				return
			}
		}
	}
	// Interface boxing of arguments.
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			if call.Ellipsis != token.NoPos {
				continue
			}
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		} else if i < sig.Params().Len() {
			param = sig.Params().At(i).Type()
		}
		if param != nil {
			checkBoxing(pass, param, arg, report)
		}
	}
}

// checkBoxing reports storing a non-pointer-shaped concrete value into an
// interface-typed destination — the conversion materializes the value on
// the heap. Pointer-shaped payloads (pointers, maps, channels, funcs) and
// untyped nil are stored inline and stay free.
func checkBoxing(pass *Pass, dst types.Type, src ast.Expr, report func(token.Pos, string, ...any)) {
	if tv, ok := pass.TypesInfo.Types[src]; ok && tv.IsNil() {
		return
	}
	checkBoxingType(pass, dst, pass.TypesInfo.TypeOf(src), src.Pos(), report)
}

// checkBoxingType is the type-level core of checkBoxing, for sources that
// are tuple elements rather than expressions.
func checkBoxingType(pass *Pass, dst, src types.Type, pos token.Pos, report func(token.Pos, string, ...any)) {
	if dst == nil || !types.IsInterface(dst.Underlying()) {
		return
	}
	if src == nil || types.IsInterface(src.Underlying()) {
		return
	}
	switch src.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return
	}
	report(pos, "boxing %s into %s allocates on the //wec:noalloc path", types.TypeString(src, types.RelativeTo(pass.Pkg)), types.TypeString(dst, types.RelativeTo(pass.Pkg)))
}

// appendGuarded reports whether an append call sits under a
// `len(x) < cap(x)` (or `cap(x) > len(x)`) guard for the same first
// argument — the arena idiom whose append can never reallocate. Both the
// `if` form and a tagless switch's `case len(x) < cap(x):` clause count.
func appendGuarded(call *ast.CallExpr, stack []ast.Node) bool {
	if len(call.Args) == 0 {
		return false
	}
	target := exprString(call.Args[0])
	for i := len(stack) - 1; i >= 0; i-- {
		switch st := stack[i].(type) {
		case *ast.IfStmt:
			if lenCapGuard(st.Cond, target) {
				return true
			}
		case *ast.CaseClause:
			// Only a tagless switch's case expression is a guard; a tagged
			// switch compares it to the tag, which proves nothing.
			if sw := enclosingSwitch(stack[:i]); sw != nil && sw.Tag == nil {
				for _, e := range st.List {
					if lenCapGuard(e, target) {
						return true
					}
				}
			}
		}
	}
	return false
}

// lenCapGuard reports whether cond is `len(target) < cap(target)` (or the
// flipped `cap > len`), matched textually on the operand.
func lenCapGuard(cond ast.Expr, target string) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	l, r := be.X, be.Y
	if be.Op == token.GTR {
		l, r = r, l
	} else if be.Op != token.LSS {
		return false
	}
	return builtinArg(l, "len") == target && builtinArg(r, "cap") == target
}

// enclosingSwitch returns the nearest enclosing expression switch, or nil
// if a type switch intervenes (its case clauses carry types, not guards).
func enclosingSwitch(stack []ast.Node) *ast.SwitchStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.SwitchStmt:
			return s
		case *ast.TypeSwitchStmt:
			return nil
		}
	}
	return nil
}

// builtinArg returns the printed argument of a len/cap call, "" otherwise.
func builtinArg(e ast.Expr, name string) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return ""
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return ""
	}
	return exprString(call.Args[0])
}

// escapingFuncLit reports whether the func literal on top of the stack is
// in an escaping position: returned, or assigned/stored somewhere (a
// literal passed directly as a call argument or invoked in place is
// presumed non-escaping — the hot path's visit-callback idiom).
func escapingFuncLit(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.CallExpr:
			return false // argument or in-place invocation
		case *ast.ReturnStmt:
			return true
		case *ast.AssignStmt:
			// Assigning to a plain local is the `helper := func(){...}`
			// idiom (stack-allocatable); storing into a field, index, or
			// dereference escapes.
			for _, lhs := range p.Lhs {
				switch ast.Unparen(lhs).(type) {
				case *ast.Ident:
				default:
					return true
				}
			}
			return false
		case ast.Expr:
			continue
		default:
			return false
		}
	}
	return false
}

// calleeIdent returns the identifier naming a call's callee (the selector's
// Sel or the bare ident); nil otherwise.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel
	case *ast.Ident:
		return fun
	}
	return nil
}

// exprString renders an expression for syntactic comparison (the append
// guard matches len/cap operands textually).
func exprString(e ast.Expr) string { return types.ExprString(e) }

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isSliceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
