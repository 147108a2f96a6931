package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// This file is the dataflow substrate shared by the callgraph-aware analyzers
// (hotalloc, ctxflow, pubsafe): an intra-package static callgraph built from
// the go/types info the loader already produces, with no dependency on
// golang.org/x/tools.
//
// Granularity is the function *scope*: every top-level FuncDecl and every
// FuncLit is its own node, with literals attributed to their lexically
// enclosing declaration (a literal created by a hot function is itself hot —
// that is how par.ForCtx bodies and timePhase closures inherit hotness).
//
// Resolution is deliberately conservative in one direction only:
//
//   - Direct calls to package-level functions and concrete methods resolve to
//     their declarations.
//   - Calls through an interface method whose interface type is declared in
//     the package under analysis resolve to every same-package concrete
//     implementation (method-set expansion), so mrf.Engine.Infer reaches
//     BP.Infer without x/tools SSA.
//   - Calls through func values, and interface calls that cannot be expanded,
//     are recorded as dynamic. Reachability does NOT follow them — the
//     analyses that build on the graph are linters, so a missed edge costs a
//     missed diagnostic, never a false positive. DESIGN.md §14 records this
//     soundness caveat.

// scope is one callgraph node: a FuncDecl or a FuncLit.
type scope struct {
	// fn is the declared function object; nil for literals.
	fn *types.Func
	// name is the display name: "View.Estimate" for methods,
	// "estimateWith" for functions, "estimateWith$1" for the first literal
	// nested in estimateWith.
	name string
	// body is the scope's statement list.
	body *ast.BlockStmt
	// node is the *ast.FuncDecl or *ast.FuncLit.
	node ast.Node
	// parent is the enclosing scope; nil for declarations.
	parent *scope
	// children are the directly nested function literals.
	children []*scope
	// callees are the same-package declared functions this scope calls
	// statically (including interface calls expanded over the package's
	// method sets).
	callees []*types.Func
	// dynamic records that the scope performs at least one call the graph
	// cannot resolve (func value, unexpandable interface method).
	dynamic bool
}

// decl returns the top-level declaration scope enclosing s (itself for
// declarations).
func (s *scope) decl() *scope {
	for s.parent != nil {
		s = s.parent
	}
	return s
}

// callGraph is the per-package static callgraph.
type callGraph struct {
	pass   *Pass
	scopes []*scope
	// byFunc maps a declared function object to its scope.
	byFunc map[*types.Func]*scope
}

// buildCallGraph constructs the callgraph for the pass's package.
func buildCallGraph(p *Pass) *callGraph {
	g := &callGraph{pass: p, byFunc: map[*types.Func]*scope{}}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			fn, _ := p.Info.Defs[d.Name].(*types.Func)
			s := &scope{fn: fn, name: declName(d), body: d.Body, node: d}
			if fn != nil {
				g.byFunc[fn] = s
			}
			g.scopes = append(g.scopes, s)
			g.walkScope(s)
		}
	}
	return g
}

// declName renders a FuncDecl's display name, with the receiver type for
// methods.
func declName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// walkScope records s's call edges and recursively builds scopes for nested
// literals (which do not belong to s's own statement walk).
func (g *callGraph) walkScope(s *scope) {
	inspectShallow(s.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			g.addCall(s, call)
		}
		return true
	})
	// Nested literals become child scopes with their own edges.
	ast.Inspect(s.body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		child := &scope{
			name:   fmt.Sprintf("%s$%d", s.name, len(s.children)+1),
			body:   lit.Body,
			node:   lit,
			parent: s,
		}
		s.children = append(s.children, child)
		g.scopes = append(g.scopes, child)
		g.walkScope(child)
		return false // walkScope(child) handles deeper nesting
	})
}

// addCall resolves one call expression into edges on s.
func (g *callGraph) addCall(s *scope, call *ast.CallExpr) {
	p := g.pass
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := p.Info.Uses[fun].(type) {
		case *types.Func:
			g.addEdge(s, obj)
		case *types.Builtin, *types.TypeName, nil:
			// builtins and conversions are not calls through the graph
		default:
			s.dynamic = true // call through a func-typed variable
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				s.dynamic = true // func-typed field
				return
			}
			fn, _ := sel.Obj().(*types.Func)
			if fn == nil {
				return
			}
			if isInterfaceMethod(fn) {
				if impls := g.implementers(fn); len(impls) > 0 {
					for _, impl := range impls {
						g.addEdge(s, impl)
					}
				} else {
					s.dynamic = true
				}
				return
			}
			g.addEdge(s, fn)
			return
		}
		// Package-qualified call (pkg.Fn) or conversion.
		switch obj := p.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			g.addEdge(s, obj)
		case *types.Var:
			s.dynamic = true // pkg-level func variable
		}
	default:
		// Conversions (T)(x) land here too; only mark dynamic for calls of
		// func-typed operands.
		if tv, ok := p.Info.Types[call.Fun]; ok && !tv.IsType() {
			if _, ok := tv.Type.Underlying().(*types.Signature); ok {
				s.dynamic = true
			}
		}
	}
}

// addEdge records a call edge when the callee is declared in the package
// under analysis (the graph is intra-package).
func (g *callGraph) addEdge(s *scope, fn *types.Func) {
	if fn.Pkg() != g.pass.Pkg {
		return
	}
	s.callees = append(s.callees, fn)
}

// isInterfaceMethod reports whether fn is declared on an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// implementers expands an interface method over the package's method sets:
// every same-package named type implementing the interface contributes its
// concrete method of the same name. Cross-package implementations are
// invisible here; callers fall back to the dynamic marking.
func (g *callGraph) implementers(ifaceMethod *types.Func) []*types.Func {
	sig := ifaceMethod.Type().(*types.Signature)
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		return nil
	}
	var out []*types.Func
	pkgScope := g.pass.Pkg.Scope()
	for _, name := range pkgScope.Names() {
		tn, ok := pkgScope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, g.pass.Pkg, ifaceMethod.Name())
		if m, ok := obj.(*types.Func); ok && m.Pkg() == g.pass.Pkg {
			out = append(out, m)
		}
	}
	return out
}

// reachable marks every scope reachable from the root scopes: the roots
// themselves, their nested literals, and transitively every same-package
// function they call. Dynamic calls contribute no edges (see the package
// comment for why under-approximation is the right polarity for a linter).
func (g *callGraph) reachable(roots []*scope) map[*scope]bool {
	seen := make(map[*scope]bool)
	var visit func(s *scope)
	visit = func(s *scope) {
		if s == nil || seen[s] {
			return
		}
		seen[s] = true
		for _, child := range s.children {
			visit(child)
		}
		for _, fn := range s.callees {
			visit(g.byFunc[fn])
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return seen
}

// recvTypeName returns the name of fn's receiver's named type ("" for plain
// functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if n := namedType(sig.Recv().Type()); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// funcDisplayName renders a declared function for the hot-set manifest:
// "View.Estimate" or "fuseTrends".
func funcDisplayName(fn *types.Func) string {
	if recv := recvTypeName(fn); recv != "" {
		return recv + "." + fn.Name()
	}
	return fn.Name()
}

// hasCtxParam reports whether sig accepts a context.Context anywhere in its
// parameter list.
func hasCtxParam(sig *types.Signature) bool {
	return ctxParamIndex(sig) >= 0
}

// ctxParamIndex returns the index of the first context.Context parameter of
// sig, or -1.
func ctxParamIndex(sig *types.Signature) int {
	if sig == nil {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return i
		}
	}
	return -1
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// calleeFunc resolves the declared function a call expression invokes, in any
// package, or nil for dynamic calls / conversions / builtins.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// calleePkgName returns the package name of the call's resolved callee, or "".
func calleePkgName(p *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Name()
}

// describe renders s for diagnostics: "estimateWith" for declarations,
// "estimateWith$1 (in estimateWith)" for nested literals.
func (s *scope) describe() string {
	if s.parent == nil {
		return s.name
	}
	return fmt.Sprintf("%s (in %s)", s.name, s.decl().name)
}
