package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Protocol checks atomic state machines against declared specifications.
// The runtime's lock-free protocols — the futex-style parking word, the
// RangeSlot steal-half CAS, the one-shot Canceller — are each a single
// atomic word whose legal transitions live only in the heads of the
// people who wrote them. A spec writes them down next to the field:
//
//	//sched:protocol parkword
//	//sched:state active = wActive
//	//sched:state parked = wParked
//	//sched:trans active -> parked
//	state atomic.Uint32
//
// and the analyzer resolves every CompareAndSwap/Store/Swap on that
// field across the whole module, constant-folds the arguments (through
// go/types and single-assignment locals, see constprop.go), and flags:
//
//   - a CAS whose (old, new) pair is not a declared transition,
//   - a Store/Swap of state S with no declared `any -> S` transition
//     (an unconditional write can fire from any current state),
//   - a constant argument matching no declared state,
//   - a non-constant argument when the spec declares no dynamic state,
//   - Add/Or/And arithmetic on the word,
//   - plain (non-atomic) writes to the field outside constructors.
//
// A state declared `= dyn` stands for "any non-constant value" — the
// RangeSlot's published word is a packed [lo,hi) pair that only the
// empty sentinel 0 distinguishes, so its spec is `empty = 0`,
// `published = dyn`. A state declared `= nil` matches the literal nil
// stored into a pointer word (without one, nil counts as dyn): a worker's
// hazard slot is `clear = nil`, `held = dyn`.
var Protocol = &Analyzer{
	Name: "protocol",
	Doc:  "checks atomic fields annotated //sched:protocol against their declared state machines",
	Run:  runProtocol,
}

// protoState is one declared state: a name bound to a constant value,
// or to dyn (val == nil), meaning any value the analyzer cannot fold.
type protoState struct {
	name string
	val  constant.Value
	raw  string // the value token as written, for diagnostics and docs
}

// protoSpec is one parsed //sched:protocol block.
type protoSpec struct {
	name      string
	fieldName string // display name, e.g. sched.Worker.state
	fieldKey  string // position key of the field's types.Var
	pos       token.Pos
	states    []*protoState
	trans     map[[2]string]bool
	transList [][2]string // declaration order, for docs
	dynState  string      // name of the dyn state ("" if none)
	nilState  string      // name of the nil state ("" if none)
}

// stateFor maps a folded argument value to a declared state name.
// v == nil means the argument did not fold; it maps to the dyn state
// if one is declared.
func (sp *protoSpec) stateFor(v constant.Value) (string, bool) {
	if v == nil {
		return sp.dynState, sp.dynState != ""
	}
	for _, st := range sp.states {
		if st.val != nil && constEq(st.val, v) {
			return st.name, true
		}
	}
	return "", false
}

func (sp *protoSpec) hasState(name string) bool {
	for _, st := range sp.states {
		if st.name == name {
			return true
		}
	}
	return false
}

func constEq(a, b constant.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	return constant.Compare(a, token.EQL, b)
}

// protoOp is one resolved atomic operation on a protocol field,
// retained for the generated documentation.
type protoOp struct {
	spec *protoSpec
	kind string // "CAS", "Store", "Swap", "Load"
	from string // CAS old state ("" for Store/Swap/Load)
	to   string // target state ("" for Load)
	fn   string // enclosing function, e.g. (*Worker).wake
	pos  token.Position
}

func runProtocol(ctx *Context) {
	specs := collectProtocolSpecs(ctx, true)
	if len(specs) == 0 {
		return
	}
	resolveProtocolOps(ctx, specs, true)
	checkProtocolPlainWrites(ctx, specs)
}

// collectProtocolSpecs parses every //sched:protocol annotation in the
// loaded packages. Specs hang off struct fields and package-level vars;
// the field's identity is its declaration position, stable across the
// source importer's duplicate package copies. report=false runs the
// same parse silently for the documentation generator.
func collectProtocolSpecs(ctx *Context, report bool) map[string]*protoSpec {
	specs := map[string]*protoSpec{}
	byName := map[string]*protoSpec{}
	for _, pkg := range ctx.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StructType:
					for _, field := range n.Fields.List {
						if field.Doc == nil || len(field.Names) == 0 {
							continue
						}
						obj, _ := pkg.Info.Defs[field.Names[0]].(*types.Var)
						parseProtocolSpec(ctx, pkg, field.Doc, obj, specs, byName, report)
					}
				case *ast.GenDecl:
					if n.Tok != token.VAR {
						return true
					}
					for _, s := range n.Specs {
						vs, ok := s.(*ast.ValueSpec)
						if !ok || len(vs.Names) == 0 {
							continue
						}
						doc := vs.Doc
						if doc == nil && len(n.Specs) == 1 {
							doc = n.Doc
						}
						if doc == nil {
							continue
						}
						obj, _ := pkg.Info.Defs[vs.Names[0]].(*types.Var)
						parseProtocolSpec(ctx, pkg, doc, obj, specs, byName, report)
					}
				}
				return true
			})
		}
	}
	return specs
}

func parseProtocolSpec(ctx *Context, pkg *Package, doc *ast.CommentGroup, obj *types.Var,
	specs map[string]*protoSpec, byName map[string]*protoSpec, report bool) {
	reportf := func(pos token.Pos, format string, args ...any) {
		if report {
			ctx.Reportf(pos, format, args...)
		}
	}
	var sp *protoSpec
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "sched:protocol":
			if len(fields) != 2 {
				reportf(c.Pos(), "malformed directive: want //sched:protocol <name>")
				continue
			}
			if obj == nil {
				reportf(c.Pos(), "//sched:protocol on an unnamed or untyped declaration")
				continue
			}
			name := fields[1]
			if prev, dup := byName[name]; dup {
				reportf(c.Pos(), "duplicate protocol name %q (also declared on %s)", name, prev.fieldName)
				continue
			}
			sp = &protoSpec{
				name:      name,
				fieldName: protoFieldDisplay(pkg, obj),
				fieldKey:  ctx.Fset.Position(obj.Pos()).String(),
				pos:       c.Pos(),
				trans:     map[[2]string]bool{},
			}
			specs[sp.fieldKey] = sp
			byName[name] = sp
		case "sched:state":
			if sp == nil {
				reportf(c.Pos(), "//sched:state before //sched:protocol in the same comment block")
				continue
			}
			if len(fields) != 4 || fields[2] != "=" {
				reportf(c.Pos(), "malformed directive: want //sched:state <name> = <value>")
				continue
			}
			name, raw := fields[1], fields[3]
			if name == "any" {
				reportf(c.Pos(), "state name %q is reserved for transitions", name)
				continue
			}
			if sp.hasState(name) {
				reportf(c.Pos(), "duplicate state %q in protocol %s", name, sp.name)
				continue
			}
			st := &protoState{name: name, raw: raw}
			switch {
			case raw == "dyn":
				if sp.dynState != "" {
					reportf(c.Pos(), "protocol %s declares a second dyn state %q (only one is resolvable)", sp.name, name)
					continue
				}
				sp.dynState = name
			case raw == "nil":
				if sp.nilState != "" {
					reportf(c.Pos(), "protocol %s declares a second nil state %q", sp.name, name)
					continue
				}
				sp.nilState = name
			case raw == "true" || raw == "false":
				st.val = constant.MakeBool(raw == "true")
			default:
				if i, err := strconv.ParseInt(raw, 0, 64); err == nil {
					st.val = constant.MakeInt64(i)
				} else if co, ok := pkg.Types.Scope().Lookup(raw).(*types.Const); ok {
					st.val = co.Val()
				} else {
					reportf(c.Pos(), "state value %q is neither a literal nor a package-level constant of %s", raw, pkg.Types.Name())
					continue
				}
			}
			sp.states = append(sp.states, st)
		case "sched:trans":
			if sp == nil {
				reportf(c.Pos(), "//sched:trans before //sched:protocol in the same comment block")
				continue
			}
			if len(fields) != 4 || fields[2] != "->" {
				reportf(c.Pos(), "malformed directive: want //sched:trans <from> -> <to>")
				continue
			}
			from, to := fields[1], fields[3]
			if from != "any" && !sp.hasState(from) {
				reportf(c.Pos(), "transition from undeclared state %q in protocol %s", from, sp.name)
				continue
			}
			if !sp.hasState(to) {
				reportf(c.Pos(), "transition to undeclared state %q in protocol %s", to, sp.name)
				continue
			}
			key := [2]string{from, to}
			if !sp.trans[key] {
				sp.trans[key] = true
				sp.transList = append(sp.transList, key)
			}
		}
	}
}

func protoFieldDisplay(pkg *Package, obj *types.Var) string {
	if obj.IsField() {
		// Find the named type owning the field by scanning the package
		// scope; falls back to the bare name for anonymous structs.
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == obj {
					return pkg.Types.Name() + "." + tn.Name() + "." + obj.Name()
				}
			}
		}
		return pkg.Types.Name() + "." + obj.Name()
	}
	return pkg.Types.Name() + "." + obj.Name()
}

// atomicMethods classifies the sync/atomic type methods by the checks
// they need. Package-level sync/atomic functions reduce to the same
// kinds by name prefix.
var atomicMethods = map[string]string{
	"Load":           "Load",
	"Store":          "Store",
	"Swap":           "Swap",
	"CompareAndSwap": "CAS",
	"Add":            "RMW",
	"Or":             "RMW",
	"And":            "RMW",
}

// resolveProtocolOps finds every sync/atomic operation on a spec'd
// field — method form (w.state.CompareAndSwap(a, b)) and package-
// function form (atomic.StoreUint32(&w.state, v)) — checks it against
// the spec when report is true, and returns the resolved ops for the
// documentation generator.
func resolveProtocolOps(ctx *Context, specs map[string]*protoSpec, report bool) []protoOp {
	var ops []protoOp
	for _, pkg := range ctx.Pkgs {
		for _, f := range pkg.Files {
			walkStack(f, func(n ast.Node, stack []ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				var obj *types.Var
				var kind string
				var valArgs []ast.Expr
				if k, isMethod := atomicMethods[fn.Name()]; isMethod && fn.Type().(*types.Signature).Recv() != nil {
					obj = protoFieldOperand(pkg, sel.X)
					kind = k
					valArgs = call.Args
				} else if fn.Type().(*types.Signature).Recv() == nil {
					// atomic.StoreUint32(&f, v) and friends.
					for prefix, k := range atomicMethods {
						if strings.HasPrefix(fn.Name(), prefix) {
							kind = k
							break
						}
					}
					if kind == "" || len(call.Args) == 0 {
						return true
					}
					un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						return true
					}
					obj = protoFieldOperand(pkg, un.X)
					valArgs = call.Args[1:]
				}
				if obj == nil {
					return true
				}
				sp, ok := specs[ctx.Fset.Position(obj.Pos()).String()]
				if !ok {
					return true
				}
				op := checkProtocolOp(ctx, pkg, sp, kind, call, valArgs, stack, report)
				if op != nil {
					ops = append(ops, *op)
				}
				return true
			})
		}
	}
	return ops
}

// protoFieldOperand resolves the receiver/operand expression of an
// atomic op to the underlying variable: the Sel of a field selection
// (handling chains like ps.flags[r].v) or a bare identifier.
func protoFieldOperand(pkg *Package, x ast.Expr) *types.Var {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		v, _ := pkg.Info.Uses[x.Sel].(*types.Var)
		return v
	case *ast.Ident:
		v, _ := pkg.Info.Uses[x].(*types.Var)
		return v
	case *ast.StarExpr:
		return protoFieldOperand(pkg, x.X)
	}
	return nil
}

// checkProtocolOp validates one resolved atomic op against the spec and
// returns it for documentation (nil for RMW ops, which are findings,
// not protocol steps).
func checkProtocolOp(ctx *Context, pkg *Package, sp *protoSpec, kind string,
	call *ast.CallExpr, valArgs []ast.Expr, stack []ast.Node, report bool) *protoOp {
	reportf := func(pos token.Pos, format string, args ...any) {
		if report {
			ctx.Reportf(pos, format, args...)
		}
	}
	body, fnName := enclosingFunc(pkg, stack)
	op := &protoOp{spec: sp, kind: kind, fn: fnName, pos: ctx.Fset.Position(call.Pos())}

	resolve := func(e ast.Expr, role string) (string, bool) {
		if tv, ok := pkg.Info.Types[e]; ok && tv.IsNil() && sp.nilState != "" {
			return sp.nilState, true
		}
		v, _ := constValueOf(pkg, body, e)
		st, ok := sp.stateFor(v)
		if ok {
			return st, true
		}
		if v != nil {
			reportf(e.Pos(), "protocol %s: %s value %s matches no declared state of %s", sp.name, role, v.ExactString(), sp.fieldName)
		} else {
			reportf(e.Pos(), "protocol %s: non-constant %s value on %s and no dyn state is declared", sp.name, role, sp.fieldName)
		}
		return "", false
	}

	switch kind {
	case "Load":
		return op
	case "RMW":
		reportf(call.Pos(), "protocol %s: arithmetic/bitwise atomic op on %s; protocol words move only by Store/Swap/CompareAndSwap of declared states", sp.name, sp.fieldName)
		return nil
	case "Store", "Swap":
		if len(valArgs) != 1 {
			return nil
		}
		st, ok := resolve(valArgs[0], "stored")
		if !ok {
			return nil
		}
		op.to = st
		if !sp.trans[[2]string{"any", st}] {
			reportf(call.Pos(), "protocol %s: %s of state %s on %s but no `any -> %s` transition is declared (an unconditional write can fire from any state)",
				sp.name, kind, st, sp.fieldName, st)
		}
		return op
	case "CAS":
		if len(valArgs) != 2 {
			return nil
		}
		from, okf := resolve(valArgs[0], "compare (old)")
		to, okt := resolve(valArgs[1], "swap (new)")
		if !okf || !okt {
			return nil
		}
		op.from, op.to = from, to
		if !sp.trans[[2]string{from, to}] && !sp.trans[[2]string{"any", to}] {
			reportf(call.Pos(), "protocol %s: undeclared transition %s -> %s on %s", sp.name, from, to, sp.fieldName)
		}
		return op
	}
	return nil
}

// enclosingFunc returns the innermost function body containing the
// current node (for local constant propagation) and the name of the
// innermost enclosing function declaration (for documentation).
func enclosingFunc(pkg *Package, stack []ast.Node) (*ast.BlockStmt, string) {
	var body *ast.BlockStmt
	name := "package scope"
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			if body == nil {
				body = fn.Body
			}
		case *ast.FuncDecl:
			if body == nil {
				body = fn.Body
			}
			if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
				name = funcDisplay(obj)
			} else {
				name = fn.Name.Name
			}
			return body, name
		}
	}
	return body, name
}

// funcDisplay renders (*Worker).wake / sched.notify style names.
func funcDisplay(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s", types.TypeString(sig.Recv().Type(), shortPkg), fn.Name())
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// checkProtocolPlainWrites flags non-atomic writes to spec'd fields:
// assigning over an atomic word (or the struct holding it) bypasses the
// state machine entirely. Constructor/init code is exempt, matching
// atomicmix's pre-publication rule.
func checkProtocolPlainWrites(ctx *Context, specs map[string]*protoSpec) {
	for _, pkg := range ctx.Pkgs {
		for _, f := range pkg.Files {
			walkStack(f, func(n ast.Node, stack []ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj, ok := pkg.Info.Uses[id].(*types.Var)
				if !ok {
					return true
				}
				sp, tracked := specs[ctx.Fset.Position(obj.Pos()).String()]
				if !tracked || exemptAtomicAccess(id, stack) {
					return true
				}
				if accessKind(id, stack) != "write" {
					return true
				}
				ctx.Reportf(id.Pos(), "protocol %s: plain write to %s bypasses the declared state machine; use its atomic ops", sp.name, sp.fieldName)
				return true
			})
		}
	}
}
