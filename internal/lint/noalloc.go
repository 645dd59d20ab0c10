package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAlloc turns the hot paths' benchmark-only 0-alloc claims into a
// build-time guarantee: a function annotated //sched:noalloc must not
// contain a construct that forces a heap allocation. AllocsPerRun tests
// pin a handful of call sites on one machine; the annotation pins every
// line of the function on every machine, and survives refactors that
// the benchmarks never exercise.
//
// Flagged inside annotated functions (and their nested closures):
//
//   - make/new/append builtins and map index writes,
//   - slice and map composite literals, and &-taken composite literals,
//   - non-constant string concatenation and string<->[]byte/[]rune
//     conversions,
//   - value-to-interface conversions at call arguments, assignments,
//     returns, and channel sends (constants, pointer-shaped values,
//     zero-size values, and interface-to-interface are exempt: none of
//     them box),
//   - closures that capture variables (a deferred closure outside any
//     loop is exempt — the compiler open-codes it on the stack),
//   - bound method values (x.M not called at once, such as a returned
//     g.Release), which pair the receiver with the method in a closure,
//   - a local's address passed to a call through a function value
//     (fn(&o)), which moves the local to the heap, as the compiler
//     cannot see what the callee does with the pointer,
//   - go statements, and defer inside a loop.
//
// The check is intra-procedural by design: a call is trusted, because
// the callee either carries its own annotation or was judged too cold
// to need one. Deliberate cold-path allocations inside an annotated
// function carry //lint:ignore noalloc <reason>.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "flags allocating constructs inside functions annotated //sched:noalloc",
	Run:  runNoAlloc,
}

func runNoAlloc(ctx *Context) {
	for _, pkg := range ctx.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasDirective(fd.Doc, "sched:noalloc") {
					continue
				}
				name := fd.Name.Name
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					name = funcDisplay(obj)
				}
				nc := &noallocCheck{ctx: ctx, pkg: pkg, fn: name, decl: fd}
				nc.check()
			}
		}
	}
}

// hasDirective reports whether the comment group contains a line whose
// first field is the given machine-readable directive.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		fields := strings.Fields(text)
		if len(fields) > 0 && fields[0] == directive {
			return true
		}
	}
	return false
}

type noallocCheck struct {
	ctx  *Context
	pkg  *Package
	fn   string
	decl *ast.FuncDecl
}

func (nc *noallocCheck) reportf(pos token.Pos, format string, args ...any) {
	nc.ctx.Reportf(pos, "noalloc function %s: "+format, append([]any{nc.fn}, args...)...)
}

func (nc *noallocCheck) typeOf(e ast.Expr) types.Type {
	if tv, ok := nc.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (nc *noallocCheck) check() {
	walkStack(nc.decl.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			nc.call(n)
		case *ast.CompositeLit:
			nc.compositeLit(n, stack)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && nc.isNonConstString(n) {
				nc.reportf(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			nc.assign(n)
		case *ast.ValueSpec:
			if n.Type != nil {
				dst := nc.typeOf(n.Type)
				for _, v := range n.Values {
					nc.ifaceConv(dst, v, "assignment")
				}
			}
		case *ast.ReturnStmt:
			nc.returnStmt(n, stack)
		case *ast.SendStmt:
			if ch, ok := nc.typeOf(n.Chan).Underlying().(*types.Chan); ok {
				nc.ifaceConv(ch.Elem(), n.Value, "channel send")
			}
		case *ast.FuncLit:
			nc.funcLit(n, stack)
		case *ast.SelectorExpr:
			nc.methodValue(n, stack)
		case *ast.GoStmt:
			nc.reportf(n.Pos(), "go statement allocates a goroutine")
		case *ast.DeferStmt:
			if loopBetween(stack, nc.decl) {
				nc.reportf(n.Pos(), "defer inside a loop heap-allocates the deferred call")
			}
		}
		return true
	})
}

func (nc *noallocCheck) call(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := nc.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				nc.reportf(call.Pos(), "make allocates")
			case "new":
				nc.reportf(call.Pos(), "new allocates")
			case "append":
				nc.reportf(call.Pos(), "append may grow and reallocate the slice")
			}
			return
		}
	}
	// Conversions: T(x).
	if tv, ok := nc.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		dst, src := tv.Type, nc.typeOf(call.Args[0])
		if src == nil {
			return
		}
		if isStringSliceConv(dst, src) {
			nc.reportf(call.Pos(), "string/slice conversion copies and allocates")
			return
		}
		nc.ifaceConv(dst, call.Args[0], "conversion")
		return
	}
	// Ordinary calls: check each argument against the parameter type for
	// interface boxing, and flag variadic calls that materialize the
	// argument slice.
	if nc.dynamicCallee(fun) {
		for _, arg := range call.Args {
			if id := addrOfLocal(nc.pkg, arg); id != nil {
				nc.reportf(arg.Pos(), "&%s passed through a function value moves %s to the heap", id.Name, id.Name)
			}
		}
	}
	ft := nc.typeOf(call.Fun)
	if ft == nil {
		return
	}
	sig, ok := ft.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	fixed := params.Len()
	if sig.Variadic() {
		fixed--
		if !call.Ellipsis.IsValid() && len(call.Args) > fixed {
			nc.reportf(call.Pos(), "variadic call allocates the argument slice")
		}
	}
	for i, arg := range call.Args {
		var dst types.Type
		switch {
		case i < fixed:
			dst = params.At(i).Type()
		case sig.Variadic() && !call.Ellipsis.IsValid():
			dst = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case sig.Variadic():
			dst = params.At(params.Len() - 1).Type() // xs... spread: same type
		default:
			continue
		}
		nc.ifaceConv(dst, arg, "argument")
	}
}

func (nc *noallocCheck) compositeLit(lit *ast.CompositeLit, stack []ast.Node) {
	t := nc.typeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		nc.reportf(lit.Pos(), "slice literal allocates")
		return
	case *types.Map:
		nc.reportf(lit.Pos(), "map literal allocates")
		return
	}
	// A value struct/array literal lives in its assignment target; only
	// taking its address forces a (potential) heap allocation.
	if len(stack) > 0 {
		if un, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && un.Op == token.AND {
			nc.reportf(un.Pos(), "address-taken composite literal may escape to the heap")
		}
	}
}

func (nc *noallocCheck) assign(st *ast.AssignStmt) {
	if st.Tok == token.ADD_ASSIGN && len(st.Lhs) == 1 {
		if t := nc.typeOf(st.Lhs[0]); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				nc.reportf(st.Pos(), "string concatenation allocates")
			}
		}
	}
	for _, lhs := range st.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t := nc.typeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					nc.reportf(lhs.Pos(), "map write may allocate (bucket growth)")
				}
			}
		}
	}
	if st.Tok == token.ASSIGN && len(st.Lhs) == len(st.Rhs) {
		for i := range st.Lhs {
			nc.ifaceConv(nc.typeOf(st.Lhs[i]), st.Rhs[i], "assignment")
		}
	}
}

func (nc *noallocCheck) returnStmt(ret *ast.ReturnStmt, stack []ast.Node) {
	results := enclosingResults(nc.pkg, stack, nc.decl)
	if results == nil || len(ret.Results) != results.Len() {
		return
	}
	for i, r := range ret.Results {
		nc.ifaceConv(results.At(i).Type(), r, "return")
	}
}

// funcLit flags closures that capture variables: the captured-variable
// record and the func value generally live on the heap once the closure
// leaves the frame (and every closure handed to Spawn does). A deferred
// closure outside any loop is exempt — the compiler open-codes the
// defer and keeps the closure on the stack.
func (nc *noallocCheck) funcLit(lit *ast.FuncLit, stack []ast.Node) {
	if deferredOutsideLoop(stack, nc.decl) {
		return
	}
	var captured []string
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := nc.pkg.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || seen[obj] {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // declared inside the closure
		}
		if obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return true // package-level: static address, no capture record
		}
		seen[obj] = true
		captured = append(captured, obj.Name())
		return true
	})
	if len(captured) > 0 {
		nc.reportf(lit.Pos(), "closure captures %s and heap-allocates its environment", strings.Join(captured, ", "))
	}
}

// methodValue flags x.M used as a value rather than called at once: the
// func value binds the receiver in a closure, which escapes wherever the
// value goes (returned, stored, passed on). Method expressions (T.M) bind
// nothing and pass.
func (nc *noallocCheck) methodValue(sel *ast.SelectorExpr, stack []ast.Node) {
	s, ok := nc.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	if len(stack) > 0 {
		if call, ok := stack[len(stack)-1].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == sel {
			return
		}
	}
	nc.reportf(sel.Pos(), "method value %s binds its receiver in a heap-allocated closure", types.ExprString(sel))
}

// dynamicCallee reports whether fun, the callee of a call, is a function
// value — a variable, a field, an element or a call result — rather than
// a declared function or method, or a literal called in place.
func (nc *noallocCheck) dynamicCallee(fun ast.Expr) bool {
	switch f := fun.(type) {
	case *ast.FuncLit:
		return false
	case *ast.Ident:
		_, isVar := nc.pkg.Info.Uses[f].(*types.Var)
		return isVar
	case *ast.SelectorExpr:
		if s, ok := nc.pkg.Info.Selections[f]; ok {
			return s.Kind() == types.FieldVal
		}
		_, isVar := nc.pkg.Info.Uses[f.Sel].(*types.Var) // a package's variable
		return isVar
	case *ast.IndexExpr:
		return !nc.declaredFunc(f.X) && nc.isFuncValue(fun) // F[T] instantiates a declared F
	case *ast.IndexListExpr:
		return !nc.declaredFunc(f.X) && nc.isFuncValue(fun)
	case *ast.CallExpr:
		return nc.isFuncValue(fun)
	}
	return false
}

// declaredFunc reports whether e names a declared function.
func (nc *noallocCheck) declaredFunc(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		_, ok := nc.pkg.Info.Uses[e].(*types.Func)
		return ok
	case *ast.SelectorExpr:
		_, ok := nc.pkg.Info.Uses[e.Sel].(*types.Func)
		return ok
	}
	return false
}

// isFuncValue reports whether e has a function type.
func (nc *noallocCheck) isFuncValue(e ast.Expr) bool {
	t := nc.typeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// addrOfLocal returns x when e is &x for a variable x local to a function
// (a parameter or a variable declared in its body), or nil.
func addrOfLocal(pkg *Package, e ast.Expr) *ast.Ident {
	un, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil
	}
	id, ok := ast.Unparen(un.X).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := pkg.Info.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return id
}

// ifaceConv flags an implicit value-to-interface conversion of e into
// dst, which boxes the value on the heap. Exemptions are the cases the
// compiler provably does not box: constants (read-only static data),
// pointer-shaped values (stored directly in the interface word),
// zero-size values (shared singleton), nil, and values already behind
// an interface.
func (nc *noallocCheck) ifaceConv(dst types.Type, e ast.Expr, what string) {
	if dst == nil {
		return
	}
	if _, isTP := dst.(*types.TypeParam); isTP {
		return
	}
	if !types.IsInterface(dst) {
		return
	}
	tv, ok := nc.pkg.Info.Types[e]
	if !ok || tv.Type == nil || tv.IsNil() || tv.Value != nil {
		return
	}
	src := tv.Type
	if types.IsInterface(src) || pointerShaped(src) {
		return
	}
	if nc.pkg.Sizes.Sizeof(src) == 0 {
		return
	}
	nc.reportf(e.Pos(), "%s converts %s to interface %s, boxing the value on the heap",
		what, types.TypeString(src, shortPkg), types.TypeString(dst, shortPkg))
}

func (nc *noallocCheck) isNonConstString(e *ast.BinaryExpr) bool {
	tv, ok := nc.pkg.Info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// pointerShaped reports whether values of t fit in one pointer word and
// need no boxing when converted to an interface.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isStringSliceConv reports a string <-> []byte/[]rune conversion.
func isStringSliceConv(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteRuneSlice(src)) || (isByteRuneSlice(dst) && isStr(src))
}

// loopBetween reports whether a for/range statement sits between the
// top of stack and the function declaration fd.
func loopBetween(stack []ast.Node, fd *ast.FuncDecl) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncDecl, *ast.FuncLit:
			if stack[i] == ast.Node(fd) {
				return false
			}
			// A loop outside an intervening closure doesn't repeat the
			// defer per iteration of *this* frame.
			return false
		}
	}
	return false
}

// deferredOutsideLoop reports whether the node whose ancestors are
// stack is the immediate callee of a defer statement with no enclosing
// loop — the open-coded defer case.
func deferredOutsideLoop(stack []ast.Node, fd *ast.FuncDecl) bool {
	if len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	def, ok := stack[len(stack)-2].(*ast.DeferStmt)
	if !ok || def.Call != call {
		return false
	}
	return !loopBetween(stack[:len(stack)-2], fd)
}

// enclosingResults returns the result tuple of the innermost function
// enclosing the current node.
func enclosingResults(pkg *Package, stack []ast.Node, fd *ast.FuncDecl) *types.Tuple {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			if sig, ok := pkg.Info.Types[fn.Type].Type.(*types.Signature); ok {
				return sig.Results()
			}
			return nil
		case *ast.FuncDecl:
			if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
				return obj.Type().(*types.Signature).Results()
			}
			return nil
		}
	}
	if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		return obj.Type().(*types.Signature).Results()
	}
	return nil
}
