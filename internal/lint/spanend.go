package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SpanEnd enforces the PR 1 tracing contract: every span returned by an obs
// StartSpan must be ended on all paths. A span that is never ended (or whose
// End a panic or early return can skip) silently drops the stage from
// /debug/trace, which is how slow-round investigations go blind.
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc: "every obs span started must be ended on all paths: " +
		"discarding the span, forgetting End, or returning before a non-deferred End is reported",
	Run: runSpanEnd,
}

func runSpanEnd(p *Pass) error {
	for _, f := range p.Files {
		funcScopes(f, func(_ string, body *ast.BlockStmt) {
			inspectShallow(body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok && isStartSpan(p, call) {
						p.Reportf(n.Pos(), "span started and discarded; bind it and call End (or remove the span)")
					}
				case *ast.AssignStmt:
					if len(n.Rhs) != 1 || len(n.Lhs) != 2 {
						return true
					}
					call, ok := n.Rhs[0].(*ast.CallExpr)
					if !ok || !isStartSpan(p, call) {
						return true
					}
					checkSpanUse(p, body, n, call)
				}
				return true
			})
		})
	}
	return nil
}

// checkSpanUse verifies the span bound by assign is ended within the
// function that started it.
func checkSpanUse(p *Pass, body *ast.BlockStmt, assign *ast.AssignStmt, call *ast.CallExpr) {
	ident, ok := assign.Lhs[1].(*ast.Ident)
	if !ok {
		return
	}
	if ident.Name == "_" {
		p.Reportf(assign.Pos(), "span started but immediately discarded with _; every StartSpan needs a matching End")
		return
	}
	obj := p.Info.Defs[ident]
	if obj == nil {
		obj = p.Info.Uses[ident]
	}
	if obj == nil {
		return
	}

	var (
		deferred bool
		firstEnd token.Pos
	)
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		if n == nil {
			return
		}
		if d, ok := n.(*ast.DeferStmt); ok {
			walk(d.Call, true)
			return
		}
		if c, ok := n.(*ast.CallExpr); ok {
			if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && p.Info.Uses[id] == obj {
					if inDefer {
						deferred = true
					}
					if firstEnd == token.NoPos || c.Pos() < firstEnd {
						firstEnd = c.Pos()
					}
				}
			}
		}
		for _, c := range children(n) {
			walk(c, inDefer)
		}
	}
	walk(body, false)

	if firstEnd == token.NoPos {
		p.Reportf(assign.Pos(), "span %s is started here but never ended in this function", ident.Name)
		return
	}
	if deferred {
		return
	}
	// Non-deferred End: any return between the start and the first End can
	// leak the span.
	// A return that itself contains the End call (return sp.End()…) is the
	// End, not an escape before it, hence the r.End() bound.
	leaked := false
	ast.Inspect(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok && r.Pos() > assign.End() && r.End() < firstEnd {
			leaked = true
		}
		return !leaked
	})
	if leaked {
		p.Reportf(assign.Pos(), "span %s may leak: a return statement precedes its non-deferred End (use defer %s.End())", ident.Name, ident.Name)
	}
}

// isStartSpan reports whether call invokes a StartSpan returning
// (context.Context, *Span); the obs tracer's package-level helper and the
// Tracer method both match.
func isStartSpan(p *Pass, call *ast.CallExpr) bool {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if name != "StartSpan" {
		return false
	}
	tv, ok := p.Info.Types[call]
	if !ok {
		return false
	}
	tuple, ok := tv.Type.(*types.Tuple)
	if !ok || tuple.Len() != 2 {
		return false
	}
	n := namedType(tuple.At(1).Type())
	return n != nil && n.Obj().Name() == "Span"
}
