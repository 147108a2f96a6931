package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ModelMut enforces the snapshot contract on the pipeline's shared immutable
// artifact, core.View, and on core.trained, the part of it that build
// trains and every view derived from it shares: they are published across
// concurrent estimation rounds, so no code may assign to their fields
// outside the constructor path of their own package. Everything else must
// publish state by minting a successor (method calls, not field writes).
var ModelMut = &Analyzer{
	Name: "modelmut",
	Doc: "disallow writes to core.View and core.trained fields outside their constructors; " +
		"a View is an immutable snapshot shared across concurrent estimation rounds",
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
						checkProtectedWrite(p, name, lhs)
					}
				case *ast.IncDecStmt:
					checkProtectedWrite(p, name, n.X)
				case *ast.UnaryExpr:
					// Taking the address of a field is a write permit in
					// disguise: the pointer escapes the immutability
					// contract.
					if n.Op == token.AND {
						if sel, ok := n.X.(*ast.SelectorExpr); ok {
							if pt, ok := protectedField(p, sel); ok && !allowedIn(p, pt, name) {
								p.Reportf(n.Pos(), "taking the address of %s.%s field %s leaks a mutable reference to an immutable snapshot", pt.pkg, pt.name, sel.Sel.Name)
							}
						}
					}
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

// checkProtectedWrite reports lhs if it assigns to a field of a protected
// snapshot type outside that type's constructor path.
func checkProtectedWrite(p *Pass, fn string, lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	pt, ok := protectedField(p, sel)
	if !ok || allowedIn(p, pt, fn) {
		return
	}
	p.Reportf(lhs.Pos(), "write to %s.%s field %s outside its constructor; %s is an immutable snapshot (publish changes by building a successor)", pt.pkg, pt.name, sel.Sel.Name, pt.name)
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
