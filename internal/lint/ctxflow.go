package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// CtxFlow enforces the context-propagation contract PR 5 threaded through
// the inference stack: a function that was handed a context must hand that
// same context on. Cancellation only bounds an estimation round if ctx
// actually *flows* from the API entrypoint into every BP loop — one callee
// quietly given context.Background() re-opens the unbounded-work hole the
// admission controller closed.
//
// Three rules, all callgraph/type driven:
//
//  1. dropped ctx — inside a scope with a context in scope (own parameter or
//     captured from the enclosing function), calling context.Background() or
//     context.TODO() discards the caller's cancellation; so does calling a
//     callee's non-Ctx variant (Estimate instead of EstimateCtx) when the
//     resolved callee has a ...Ctx sibling that accepts a context.
//  2. Background()/TODO() in library packages — outside main packages, a
//     scope with no context of its own may not mint one: it must take a ctx
//     parameter or carry a justified suppression (the documented offline
//     constructors do). There is no convenience-wrapper exemption: an
//     Estimate that only forwards to EstimateCtx with a fresh Background is
//     a ctx-less twin, which lets a caller drop its context by picking the
//     wrong name.
//  3. unpolled long loops — a for-loop with a constant trip count above 1024
//     inside a ctx-bearing scope must poll cancellation on its path: mention
//     ctx (or ctx.Err), or call something that accepts a context.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "require contexts to flow: no context.Background()/TODO() where a ctx is in scope or in library " +
		"packages, no calling a non-Ctx variant when a Ctx sibling exists, and no constant-bound loops " +
		">1024 iterations without a ctx poll",
	Run: runCtxFlow,
}

// ctxLoopBound is the constant trip count above which a loop in a
// ctx-bearing scope must poll cancellation.
const ctxLoopBound = 1024

func runCtxFlow(p *Pass) error {
	g := buildCallGraph(p)
	isMain := p.Pkg.Name() == "main"
	for _, s := range g.scopes {
		ctxVars := ctxInScope(p, s)
		if len(ctxVars) > 0 {
			checkCtxScope(p, s, ctxVars)
			continue
		}
		if !isMain && s.parent == nil {
			checkLibraryScope(p, s)
		}
	}
	return nil
}

// ctxInScope collects the context.Context parameters visible to s: its own
// and those of every enclosing scope (a literal inside View.Estimate has the
// method's ctx available by capture).
func ctxInScope(p *Pass, s *scope) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	for sc := s; sc != nil; sc = sc.parent {
		var ft *ast.FuncType
		switch n := sc.node.(type) {
		case *ast.FuncDecl:
			ft = n.Type
		case *ast.FuncLit:
			ft = n.Type
		}
		if ft == nil || ft.Params == nil {
			continue
		}
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if v, ok := p.Info.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
					out[v] = true
				}
			}
		}
	}
	return out
}

// checkCtxScope applies the dropped-ctx and long-loop rules to a scope that
// has a context available.
func checkCtxScope(p *Pass, s *scope, ctxVars map[*types.Var]bool) {
	inspectShallow(s.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := contextMint(p, n); ok {
				p.Reportf(n.Pos(), "context.%s() drops the ctx in scope (%s); pass the caller's context", name, s.describe())
				return true
			}
			checkCtxSibling(p, s, n)
		case *ast.ForStmt:
			checkLongLoop(p, s, n, ctxVars)
		}
		return true
	})
}

// checkCtxSibling flags calls that resolve to a callee with a ...Ctx sibling
// accepting a context: from a ctx-bearing scope the Ctx variant is the only
// correct choice.
func checkCtxSibling(p *Pass, s *scope, call *ast.CallExpr) {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || hasCtxParam(sig) {
		return // the callee takes a ctx; whether one is passed is rule 1's job
	}
	sibling := ctxSibling(fn)
	if sibling == nil {
		return
	}
	p.Reportf(call.Pos(), "calling %s drops the ctx in scope (%s); call %s instead", fn.Name(), s.describe(), sibling.Name())
}

// ctxSibling finds fn's ...Ctx variant: a function or method named
// fn.Name()+"Ctx" on the same receiver (or in the same package scope) whose
// signature accepts a context.
func ctxSibling(fn *types.Func) *types.Func {
	want := fn.Name() + "Ctx"
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), want)
		if m, ok := obj.(*types.Func); ok && hasCtxParam(m.Type().(*types.Signature)) {
			return m
		}
		return nil
	}
	if fn.Pkg() == nil {
		return nil
	}
	if m, ok := fn.Pkg().Scope().Lookup(want).(*types.Func); ok && hasCtxParam(m.Type().(*types.Signature)) {
		return m
	}
	return nil
}

// checkLibraryScope applies rule 2 to a library scope with no ctx of its
// own: any Background()/TODO() there is a finding.
func checkLibraryScope(p *Pass, s *scope) {
	inspectShallow(s.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := contextMint(p, call)
		if !ok {
			return true
		}
		p.Reportf(call.Pos(), "context.%s() in library function %s; take a ctx parameter", name, s.describe())
		return true
	})
	// Literals nested in a ctx-less declaration inherit no ctx; they are
	// visited as their own scopes and take the same rule via runCtxFlow only
	// for top-level scopes, so walk them here.
	for _, child := range s.children {
		if len(ctxInScope(p, child)) == 0 {
			checkLibraryScope(p, child)
		}
	}
}

// contextMint reports whether call is context.Background() or context.TODO().
func contextMint(p *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name(), true
	}
	return "", false
}

// checkLongLoop flags constant-bound for-loops over ctxLoopBound iterations
// whose path never touches the ctx in scope.
func checkLongLoop(p *Pass, s *scope, loop *ast.ForStmt, ctxVars map[*types.Var]bool) {
	bound, ok := loopTripCount(p, loop)
	if !ok || bound <= ctxLoopBound {
		return
	}
	polled := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if polled {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := p.Info.Uses[n].(*types.Var); ok && ctxVars[v] {
				polled = true
			}
		case *ast.CallExpr:
			if fn := calleeFunc(p, n); fn != nil {
				if sig, ok := fn.Type().(*types.Signature); ok && hasCtxParam(sig) {
					polled = true
				}
			}
		}
		return true
	})
	if !polled {
		p.Reportf(loop.Pos(), "loop with constant bound %d (> %d) never polls the ctx in scope (%s); check ctx.Err() on a stride", bound, ctxLoopBound, s.describe())
	}
}

// loopTripCount extracts a loop's constant trip count from the common
// `for i := 0; i < N; i++` shape (also `i <= N` and a constant non-zero
// start). Loops the pattern cannot prove constant return ok == false.
func loopTripCount(p *Pass, loop *ast.ForStmt) (int64, bool) {
	cond, ok := loop.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return 0, false
	}
	hi, ok := constInt(p, cond.Y)
	if !ok {
		return 0, false
	}
	var lo int64
	if init, ok := loop.Init.(*ast.AssignStmt); ok && len(init.Rhs) == 1 {
		if v, ok := constInt(p, init.Rhs[0]); ok {
			lo = v
		}
	}
	n := hi - lo
	if cond.Op == token.LEQ {
		n++
	}
	return n, true
}

// constInt evaluates e as a compile-time integer constant.
func constInt(p *Pass, e ast.Expr) (int64, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}
