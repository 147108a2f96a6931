package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// HotAlloc enforces allocation discipline on the estimation hot path: the
// functions reachable (via the intra-package callgraph) from the registered
// hot roots must not contain allocation-inducing constructs. The paper's
// efficiency claim rests on the per-round path being allocation-free once
// buffers are pooled; one stray fmt.Sprintf or unsized append in a BP round
// costs a GC cycle per request at city scale.
//
// Flagged constructs: append without capacity evidence (the destination was
// never sized with a 3-arg make in the same declaration), slice/map composite
// literals, interface boxing at call sites, fmt.* calls and non-constant
// string concatenation, and closures that capture enclosing variables (a
// capturing closure is heap-allocated whenever it escapes, and everything
// passed to a worker pool escapes).
//
// Suppression uses the dedicated //lint:hotpath-ok <reason> directive (an
// alias for //lint:ignore hotalloc <reason>): a construct that allocates
// once per run — outside the per-round loop — is fine, but the reason must
// say so. The current hot frontier is exported as a manifest (lint/
// hotpath.json, see HotSet) so reviewers see the reachable set move.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag allocation-inducing constructs in functions reachable from the hot roots " +
		"(" + "see lint.HotSet" + "); suppress with //lint:hotpath-ok <reason>",
	Run: runHotAlloc,
}

// rootSpec names one hot root: a function or method (by receiver type name)
// in a package matched by *name*, so fixtures can mirror real packages. An
// interface receiver expands to every same-package implementation.
type rootSpec struct {
	pkg, recv, fn string
}

// hotRoots is the hot-path registry. par.ForCtx/ForMaxCtx literal bodies are
// implicit additional roots (see parBodyRoots): the loop body handed to the
// worker pool is the innermost hot code there is.
var hotRoots = []rootSpec{
	{"core", "View", "Estimate"},
	{"core", "View", "EstimateWith"},
	{"mrf", "Engine", "Infer"},
	{"seedsel", "", "SelectShardedCtx"},
	{"par", "", "ForCtx"},
	{"par", "", "ForMaxCtx"},
}

// parLoopFuncs are the worker-pool entry points whose function-literal
// arguments are implicitly hot: the ctx-aware index loops run once per chunk
// per inference round. par.For/EachCtx bodies are deliberately NOT
// implicit roots — training and rebuild fan-outs use them off the serving
// path, and sweeping those in would drown the signal (rebuild-path functions
// still go hot when an explicit root reaches them).
var parLoopFuncs = map[string]bool{
	"ForCtx": true, "ForMaxCtx": true,
}

// hotScopes computes the package's hot scope set: explicit roots, implicit
// par-body roots, and everything the callgraph reaches from them.
func hotScopes(p *Pass, g *callGraph) map[*scope]bool {
	var roots []*scope
	pkgName := p.Pkg.Name()
	for _, spec := range hotRoots {
		if spec.pkg != pkgName {
			continue
		}
		roots = append(roots, matchRoot(p, g, spec)...)
	}
	roots = append(roots, parBodyRoots(p, g)...)
	return g.reachable(roots)
}

// matchRoot resolves one root spec against the package's declarations.
func matchRoot(p *Pass, g *callGraph, spec rootSpec) []*scope {
	// An interface receiver expands over the package's method sets.
	if spec.recv != "" {
		if tn, ok := p.Pkg.Scope().Lookup(spec.recv).(*types.TypeName); ok {
			if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
				return interfaceRootScopes(p, g, tn, spec.fn)
			}
		}
	}
	var out []*scope
	for fn, s := range g.byFunc {
		if fn.Name() != spec.fn {
			continue
		}
		if recvTypeName(fn) != spec.recv {
			continue
		}
		out = append(out, s)
	}
	return out
}

// interfaceRootScopes returns the scopes of every same-package concrete
// method implementing ifaceName.method.
func interfaceRootScopes(p *Pass, g *callGraph, tn *types.TypeName, method string) []*scope {
	iface, _ := tn.Type().Underlying().(*types.Interface)
	if iface == nil {
		return nil
	}
	var out []*scope
	for fn, s := range g.byFunc {
		if fn.Name() != method {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			continue
		}
		rt := sig.Recv().Type()
		if types.Implements(rt, iface) || types.Implements(types.NewPointer(rt), iface) {
			out = append(out, s)
		}
	}
	return out
}

// parBodyRoots finds function literals passed directly to the par worker
// pool in any package: their bodies run once per chunk per round.
func parBodyRoots(p *Pass, g *callGraph) []*scope {
	litScope := make(map[ast.Node]*scope, len(g.scopes))
	for _, s := range g.scopes {
		litScope[s.node] = s
	}
	var out []*scope
	for _, s := range g.scopes {
		inspectShallow(s.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "par" || !parLoopFuncs[fn.Name()] {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					if ls := litScope[lit]; ls != nil {
						out = append(out, ls)
					}
				}
			}
			return true
		})
	}
	return out
}

func runHotAlloc(p *Pass) error {
	g := buildCallGraph(p)
	hot := hotScopes(p, g)
	for _, s := range g.scopes {
		if !hot[s] {
			continue
		}
		checkHotScope(p, s)
	}
	return nil
}

// checkHotScope flags the allocation-inducing constructs in one hot scope's
// own statements (nested literals are their own hot scopes).
func checkHotScope(p *Pass, s *scope) {
	where := s.describe()
	walkWarmStatements(p, s.body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(p, s, n, where)
		case *ast.CompositeLit:
			tv, ok := p.Info.Types[n]
			if !ok {
				return
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				p.Reportf(n.Pos(), "slice literal allocates on the hot path (%s); hoist or pool it", where)
			case *types.Map:
				p.Reportf(n.Pos(), "map literal allocates on the hot path (%s); hoist or pool it", where)
			}
		case *ast.BinaryExpr:
			if n.Op != token.ADD {
				return
			}
			tv, ok := p.Info.Types[n]
			if !ok || tv.Value != nil { // constant-folded concat is free
				return
			}
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				p.Reportf(n.Pos(), "string concatenation allocates on the hot path (%s)", where)
			}
		case *ast.FuncLit:
			if capt := capturedVars(p, n); len(capt) > 0 {
				p.Reportf(n.Pos(), "closure captures %s and may escape on the hot path (%s); hoist it out of the per-round loop", capt[0], where)
			}
		}
	})
}

// checkHotCall flags appends without capacity evidence, fmt calls and
// interface boxing at one call site.
func checkHotCall(p *Pass, s *scope, call *ast.CallExpr, where string) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" && !hasCapacityEvidence(p, s, call) {
				p.Reportf(call.Pos(), "append without capacity evidence on the hot path (%s); size the slice with a 3-arg make or pool it", where)
			}
			return
		}
	}
	fn := calleeFunc(p, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		p.Reportf(call.Pos(), "fmt.%s allocates on the hot path (%s)", fn.Name(), where)
		return
	}
	checkBoxing(p, call, fn, where)
}

// checkBoxing flags concrete values passed to interface-typed parameters: the
// conversion boxes the value on the heap (small-int and pointer-identical
// cases excepted, which the compiler cannot always prove either).
func checkBoxing(p *Pass, call *ast.CallExpr, fn *types.Func, where string) {
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			sl, ok := last.(*types.Slice)
			if !ok {
				continue
			}
			if call.Ellipsis != token.NoPos {
				continue // passing a []T... spreads, no boxing
			}
			param = sl.Elem()
		} else if i < sig.Params().Len() {
			param = sig.Params().At(i).Type()
		} else {
			continue
		}
		if _, isIface := param.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv, ok := p.Info.Types[arg]
		if !ok || tv.IsNil() {
			continue
		}
		at := tv.Type.Underlying()
		if _, isIface := at.(*types.Interface); isIface {
			continue // interface-to-interface, no new box
		}
		if _, isPtr := at.(*types.Pointer); isPtr {
			continue // pointers fit in the iface word, no heap box
		}
		if _, isSig := at.(*types.Signature); isSig {
			continue // func values are already pointers
		}
		p.Reportf(arg.Pos(), "passing %s as interface %s boxes the value on the hot path (%s)", tv.Type, param, where)
	}
}

// hasCapacityEvidence reports whether an append call's destination slice was
// provably sized: the first argument resolves to a variable that is
// initialised (anywhere in the enclosing declaration) by a 3-arg make, by a
// slicing of such a variable, or by a call (pooled buffers and sized
// constructors count as evidence — the callee is responsible for its sizing).
func hasCapacityEvidence(p *Pass, s *scope, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	base := ast.Unparen(call.Args[0])
	if sl, ok := base.(*ast.SliceExpr); ok {
		base = ast.Unparen(sl.X)
	}
	id, ok := base.(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	// Search the whole enclosing declaration for a sizing assignment to v.
	// The assignment holding the append under inspection is excluded, so an
	// unsized `x = append(x, ...)` cannot count itself as its own evidence.
	root := s.decl()
	evidence := false
	ast.Inspect(root.body, func(n ast.Node) bool {
		if evidence {
			return false
		}
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range asg.Lhs {
			lid, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			lobj := p.Info.Defs[lid]
			if lobj == nil {
				lobj = p.Info.Uses[lid]
			}
			if lobj != v || i >= len(asg.Rhs) && len(asg.Rhs) != 1 {
				continue
			}
			rhs := asg.Rhs[0]
			if len(asg.Rhs) == len(asg.Lhs) {
				rhs = asg.Rhs[i]
			}
			if ast.Unparen(rhs) == call {
				continue
			}
			if sizingExpr(p, rhs) {
				evidence = true
			}
		}
		return true
	})
	return evidence
}

// sizingExpr reports whether e provides capacity evidence for a slice
// variable: a 3-arg make, any call (sized constructor / pooled buffer), or an
// append chain (the chain's head was checked at its own call site).
func sizingExpr(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				return len(call.Args) >= 3
			case "append":
				return true // flagged (or sized) at its own site
			default:
				return false
			}
		}
	}
	return true // non-builtin call: sized constructor or pool
}

// capturedVars returns the names of enclosing-function variables a literal
// captures (package-level variables and its own locals excluded), sorted.
func capturedVars(p *Pass, lit *ast.FuncLit) []string {
	litScope := p.Info.Scopes[lit.Type]
	seen := map[string]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() != p.Pkg {
			return true
		}
		parent := v.Parent()
		if parent == nil || parent == p.Pkg.Scope() {
			return true // package-level, not a capture
		}
		if litScope != nil && scopeWithin(parent, litScope) {
			return true // the literal's own local or parameter
		}
		seen[v.Name()] = true
		return true
	})
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// scopeWithin reports whether inner is s or nested anywhere inside s.
func scopeWithin(inner, s *types.Scope) bool {
	for sc := inner; sc != nil; sc = sc.Parent() {
		if sc == s {
			return true
		}
	}
	return false
}

// walkWarmStatements walks a body like inspectShallow but additionally prunes
// cold statements: the taken branch of `if err != nil` error handling and
// panic arguments. Allocation on an error path is paid once per failure, not
// once per round, so it is out of hotalloc's scope.
func walkWarmStatements(p *Pass, body *ast.BlockStmt, fn func(ast.Node)) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			fn(n) // report the closure itself, not its body (its own scope)
			return false
		case *ast.IfStmt:
			if isErrNilCheck(p, n.Cond) {
				// The error branch is cold; the else branch (if any) and the
				// init statement stay warm.
				if n.Init != nil {
					ast.Inspect(n.Init, walk)
				}
				if n.Else != nil {
					ast.Inspect(n.Else, walk)
				}
				return false
			}
		case *ast.ReturnStmt:
			// Returning a freshly built non-nil error is the failure exit;
			// its construction (fmt.Errorf and friends) is paid per failure,
			// not per round. Non-error results of the same return stay warm.
			for _, res := range n.Results {
				if errorConstruction(p, res) {
					continue
				}
				ast.Inspect(res, walk)
			}
			return false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return false // panic construction is cold by definition
			}
			fn(n)
			return true
		case ast.Node:
			fn(n)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// isErrNilCheck reports whether cond is an `x != nil` (or x == nil) test of
// an expression whose static type is error.
func isErrNilCheck(p *Pass, cond ast.Expr) bool {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (b.Op != token.NEQ && b.Op != token.EQL) {
		return false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	var operand ast.Expr
	switch {
	case isNil(b.Y):
		operand = b.X
	case isNil(b.X):
		operand = b.Y
	default:
		return false
	}
	tv, ok := p.Info.Types[operand]
	return ok && tv.Type != nil && types.Implements(tv.Type, errorIface)
}

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// errorConstruction reports whether e is a non-nil expression whose static
// type implements error — the shape of a failure-path return value.
func errorConstruction(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.IsNil() || tv.Type == nil {
		return false
	}
	return types.Implements(tv.Type, errorIface)
}
