package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ModelMut enforces the snapshot contract on the pipeline's shared immutable
// artifact, core.View, and on core.trained, the part of it that build
// trains and every view derived from it shares: they are published across
// concurrent estimation rounds, so only build, their constructor, writes
// them. Two rules keep it so:
//
//   - Outside build, no write may reach through a field of either type: an
//     assignment or ++/-- whose target selects one anywhere in its chain
//     (x.F, x.F[i], *x.F, x.F.G) is reported, and so is &x.F, a write permit
//     in disguise.
//   - Inside build, nothing may publish either type: a Store, Swap or
//     CompareAndSwap on an atomic.Pointer to one is reported, because a
//     constructor must not publish what it may still write.
//
// Together they rule out every write after publication: a write outside
// build is reported wherever it happens, and build publishes nothing.
// Everything else must publish state by minting a successor.
var ModelMut = &Analyzer{
	Name: "modelmut",
	Doc: "disallow writes through core.View and core.trained fields outside their constructor, " +
		"and publishing either type from it; a View is an immutable snapshot shared across concurrent estimation rounds",
	Run: runModelMut,
}

// protectedType is one immutable snapshot type and the functions of its own
// package allowed to initialise its fields.
type protectedType struct {
	pkg, name    string
	constructors map[string]bool
}

// protectedTypes is the snapshot registry: the version-stamping builder
// each type shares with the Store.
var protectedTypes = []protectedType{
	{"core", "View", map[string]bool{"build": true}},
	{"core", "trained", map[string]bool{"build": true}},
}

func runModelMut(p *Pass) error {
	for _, f := range p.Files {
		funcScopes(f, func(name string, body *ast.BlockStmt) {
			inspectShallow(body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						checkProtectedWrite(p, name, lhs, "write to")
					}
				case *ast.IncDecStmt:
					checkProtectedWrite(p, name, n.X, "write to")
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						checkProtectedWrite(p, name, n.X, "taking the address of")
					}
				case *ast.CallExpr:
					checkPublish(p, name, n)
				}
				return true
			})
		})
	}
	return nil
}

// allowedIn reports whether function fn of the current package may write
// pt's fields.
func allowedIn(p *Pass, pt protectedType, fn string) bool {
	return p.Pkg.Name() == pt.pkg && pt.constructors[fn]
}

// checkProtectedWrite reports target, written or addressed in function fn,
// if its chain of selections, indexes and dereferences passes through a
// field of a protected type outside that type's constructor. The field
// nearest the write is named.
func checkProtectedWrite(p *Pass, fn string, target ast.Expr, verb string) {
	for e := ast.Unparen(target); ; {
		switch t := e.(type) {
		case *ast.SelectorExpr:
			if pt, ok := protectedField(p, t); ok {
				if !allowedIn(p, pt, fn) {
					p.Reportf(target.Pos(), "%s %s.%s field %s outside its constructor; %s is an immutable snapshot (publish changes by building a successor)", verb, pt.pkg, pt.name, t.Sel.Name, pt.name)
				}
				return
			}
			e = ast.Unparen(t.X)
		case *ast.IndexExpr:
			e = ast.Unparen(t.X)
		case *ast.SliceExpr:
			e = ast.Unparen(t.X)
		case *ast.StarExpr:
			e = ast.Unparen(t.X)
		default:
			return
		}
	}
}

// protectedField reports whether sel selects a field whose receiver is one
// of the protected snapshot types (directly or through a pointer).
func protectedField(p *Pass, sel *ast.SelectorExpr) (protectedType, bool) {
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return protectedType{}, false
	}
	for _, pt := range protectedTypes {
		if isNamed(s.Recv(), pt.pkg, pt.name) {
			return pt, true
		}
	}
	return protectedType{}, false
}

// checkPublish reports call, made in function fn, if it stores into an
// atomic.Pointer to a protected type from that type's constructor.
func checkPublish(p *Pass, fn string, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Store", "Swap", "CompareAndSwap":
	default:
		return
	}
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal || !isNamedPath(s.Recv(), "sync/atomic", "Pointer") {
		return
	}
	args := namedType(s.Recv()).TypeArgs()
	if args.Len() != 1 {
		return
	}
	for _, pt := range protectedTypes {
		if isNamed(args.At(0), pt.pkg, pt.name) && allowedIn(p, pt, fn) {
			p.Reportf(call.Pos(), "%s publishes a %s.%s through atomic.Pointer.%s; a constructor must not publish what it may still write (publish what %s returns)", fn, pt.pkg, pt.name, sel.Sel.Name, fn)
			return
		}
	}
}
