package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PubSafe generalizes modelmut from "no field writes outside constructors"
// to "no writes after publication, interprocedurally". The pipeline's shared
// artifact, core.View, becomes visible to concurrent readers the instant it
// is stored into its one publisher, the atomic.Pointer Store.cur; from that
// statement on, *any* write through a retained alias is a data race, even
// inside the constructor path that modelmut exempts (a Store must not touch
// a view it already swapped in). mrf.Beliefs stays on the list, but nothing
// publishes one any more: it goes with Infer's warm-start parameter.
//
// The analysis is flow-sensitive within one declaration and summary-based
// across calls: per-function "mutates pointer parameter i" summaries are
// iterated to a fixpoint over the intra-package callgraph, then every
// publish site (atomic.Pointer[T].Store / CompareAndSwap with protected T)
// taints the stored local, and statements after the publish that write the
// alias's fields — directly or by passing it to a summarized mutator — are
// flagged. Dynamic calls contribute no summaries (see DESIGN.md §14 for the
// soundness caveat).
var PubSafe = &Analyzer{
	Name: "pubsafe",
	Doc: "flag writes to core.View/mrf.Beliefs values after they were published " +
		"through an atomic.Pointer, including writes reached through same-package calls on a retained alias",
	Run: runPubSafe,
}

// pubProtected lists the published artifact types pubsafe tracks; matching
// is by package name so fixtures can mirror the real packages.
var pubProtected = [][2]string{
	{"core", "View"},
	{"mrf", "Beliefs"},
}

// isPubProtected reports whether t is (a pointer to) one of the protected
// published types.
func isPubProtected(t types.Type) bool {
	for _, pt := range pubProtected {
		if isNamed(t, pt[0], pt[1]) {
			return true
		}
	}
	return false
}

// mutSummary records which of a declaration's pointer parameters (receiver
// included, keyed by *types.Var) the function writes through, directly or
// transitively.
type mutSummary map[*types.Var]bool

func runPubSafe(p *Pass) error {
	g := buildCallGraph(p)
	sums := mutationSummaries(p, g)
	for _, s := range g.scopes {
		if s.parent != nil {
			continue // publish tracking is per-declaration; literals are
			// visited through their parents below
		}
		checkPublishes(p, g, s, sums)
	}
	return nil
}

// paramVars returns the declaration's receiver and parameters of protected
// pointer type.
func paramVars(p *Pass, s *scope) []*types.Var {
	d, ok := s.node.(*ast.FuncDecl)
	if !ok {
		return nil
	}
	var out []*types.Var
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if v, ok := p.Info.Defs[name].(*types.Var); ok && isPubProtected(v.Type()) {
					out = append(out, v)
				}
			}
		}
	}
	add(d.Recv)
	add(d.Type.Params)
	return out
}

// mutationSummaries computes the per-declaration mutation summaries to a
// fixpoint: a function mutates a protected parameter if it writes the
// parameter's fields in its own body (any nested literal included) or passes
// it to a callee whose summary says the matching parameter is mutated.
func mutationSummaries(p *Pass, g *callGraph) map[*types.Func]mutSummary {
	sums := map[*types.Func]mutSummary{}
	for fn, s := range g.byFunc {
		sum := mutSummary{}
		for _, v := range paramVars(p, s) {
			sum[v] = false
		}
		sums[fn] = sum
	}
	for changed := true; changed; {
		changed = false
		for fn, s := range g.byFunc {
			sum := sums[fn]
			if len(sum) == 0 {
				continue
			}
			for v, already := range sum {
				if already {
					continue
				}
				if declMutates(p, g, s, v, sums) {
					sum[v] = true
					changed = true
				}
			}
		}
	}
	return sums
}

// declMutates reports whether s's declaration (including nested literals)
// writes v's fields directly or passes v to a summarized mutator.
func declMutates(p *Pass, g *callGraph, s *scope, v *types.Var, sums map[*types.Func]mutSummary) bool {
	found := false
	ast.Inspect(s.body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if fieldWriteBase(p, lhs) == v {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if fieldWriteBase(p, n.X) == v {
				found = true
			}
		case *ast.CallExpr:
			if callMutatesVar(p, n, v, sums) {
				found = true
			}
		}
		return true
	})
	return found
}

// fieldWriteBase resolves an assignment target of the form x.F, x.F[i],
// *x.F, x.F.G... to the base object x when the write lands in a field chain
// rooted at a variable; nil otherwise.
func fieldWriteBase(p *Pass, lhs ast.Expr) *types.Var {
	e := ast.Unparen(lhs)
	sawField := false
	for {
		switch t := e.(type) {
		case *ast.SelectorExpr:
			if sel, ok := p.Info.Selections[t]; ok && sel.Kind() == types.FieldVal {
				sawField = true
			}
			e = ast.Unparen(t.X)
		case *ast.IndexExpr:
			e = ast.Unparen(t.X)
		case *ast.StarExpr:
			e = ast.Unparen(t.X)
		case *ast.Ident:
			if !sawField {
				return nil // plain rebinding of the variable itself
			}
			v, _ := p.Info.Uses[t].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// callMutatesVar reports whether call passes v to a same-package callee in a
// parameter position whose summary is "mutated". The receiver counts as a
// position: v.Retrain() mutates v if Retrain's summary says so.
func callMutatesVar(p *Pass, call *ast.CallExpr, v *types.Var, sums map[*types.Func]mutSummary) bool {
	fn := calleeFunc(p, call)
	if fn == nil {
		return false
	}
	sum, ok := sums[fn]
	if !ok || len(sum) == 0 {
		return false
	}
	sig := fn.Type().(*types.Signature)
	// Receiver position.
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if rv, ok := p.Info.Uses[id].(*types.Var); ok && rv == v {
					if recvVar := declRecvVar(fn); recvVar != nil && sum[recvVar] {
						return true
					}
				}
			}
		}
	}
	// Ordinary parameter positions.
	for i, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		av, ok := p.Info.Uses[id].(*types.Var)
		if !ok || av != v {
			continue
		}
		if i >= sig.Params().Len() {
			break // variadic tail of non-protected type
		}
		pv := sig.Params().At(i)
		if sum[pv] {
			return true
		}
	}
	return false
}

// declRecvVar returns fn's declared receiver variable.
func declRecvVar(fn *types.Func) *types.Var {
	sig := fn.Type().(*types.Signature)
	return sig.Recv()
}

// publish is one taint: a protected value stored into an atomic pointer.
type publish struct {
	v    *types.Var // the local/parameter holding the published value
	pos  token.Pos  // end of the Store call; later statements are post-publish
	name string     // display name of the stored expression
}

// checkPublishes finds the publish sites in one declaration and flags
// post-publish writes through the published alias.
func checkPublishes(p *Pass, g *callGraph, s *scope, sums map[*types.Func]mutSummary) {
	var pubs []publish
	ast.Inspect(s.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pub, ok := publishSite(p, call); ok {
			pubs = append(pubs, pub)
		}
		return true
	})
	if len(pubs) == 0 {
		return
	}
	ast.Inspect(s.body, func(n ast.Node) bool {
		for _, pub := range pubs {
			if n == nil || n.Pos() <= pub.pos {
				continue
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if fieldWriteBase(p, lhs) == pub.v {
						p.Reportf(lhs.Pos(), "write to %s after it was published via atomic store; readers already see it", pub.name)
					}
				}
			case *ast.IncDecStmt:
				if fieldWriteBase(p, n.X) == pub.v {
					p.Reportf(n.Pos(), "write to %s after it was published via atomic store; readers already see it", pub.name)
				}
			case *ast.CallExpr:
				if callMutatesVar(p, n, pub.v, sums) {
					p.Reportf(n.Pos(), "call mutates %s after it was published via atomic store; readers already see it", pub.name)
				}
			}
		}
		return true
	})
}

// publishSite recognises atomic.Pointer[T].Store(v) and
// CompareAndSwap(old, new) calls with protected T whose stored value is a
// plain identifier worth tracking.
func publishSite(p *Pass, call *ast.CallExpr) (publish, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return publish{}, false
	}
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return publish{}, false
	}
	method := sel.Sel.Name
	var storedArg int
	switch method {
	case "Store", "Swap":
		storedArg = 0
	case "CompareAndSwap":
		storedArg = 1
	default:
		return publish{}, false
	}
	recv := s.Recv()
	if !isNamedPath(recv, "sync/atomic", "Pointer") {
		return publish{}, false
	}
	n := namedType(recv)
	if n == nil || n.TypeArgs() == nil || n.TypeArgs().Len() != 1 {
		return publish{}, false
	}
	if !isPubProtected(types.NewPointer(n.TypeArgs().At(0))) {
		return publish{}, false
	}
	if storedArg >= len(call.Args) {
		return publish{}, false
	}
	id, ok := ast.Unparen(call.Args[storedArg]).(*ast.Ident)
	if !ok {
		return publish{}, false
	}
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok {
		return publish{}, false
	}
	return publish{v: v, pos: call.End(), name: id.Name}, true
}
