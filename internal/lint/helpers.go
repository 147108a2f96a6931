package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// namedType unwraps pointers and aliases and returns the *types.Named behind
// t, or nil if t is not a (pointer to a) named type.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t is a (pointer to a) named type with the given
// type name declared in a package with the given name. Matching on package
// *name* rather than import path keeps the checks testable against fixture
// packages that mirror the real ones.
func isNamed(t types.Type, pkgName, typeName string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// isNamedPath is isNamed keyed on the full import path, for types (like
// sync/atomic.Pointer) where the real package is importable from fixtures.
func isNamedPath(t types.Type, pkgPath, typeName string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// exprString renders a chain of identifiers and field selections ("s.cur",
// "s.cfg.RebuildMinObs") for use as a stable key and in messages. Expressions
// containing anything else (calls, indexing) render as "" and should be
// treated as distinct.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.SelectorExpr:
		x := exprString(e.X)
		if x == "" {
			return ""
		}
		return x + "." + e.Sel.Name
	case *ast.StarExpr:
		x := exprString(e.X)
		if x == "" {
			return ""
		}
		return "*" + x
	}
	return ""
}

// funcScopes visits every function in the file — top-level declarations and
// function literals — exactly once, handing fn the declaration name ("" for
// literals) and the body. Nested literals are visited as their own scopes.
func funcScopes(f *ast.File, fn func(name string, body *ast.BlockStmt)) {
	for _, decl := range f.Decls {
		d, ok := decl.(*ast.FuncDecl)
		if !ok || d.Body == nil {
			continue
		}
		fn(d.Name.Name, d.Body)
		name := d.Name.Name
		ast.Inspect(d.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				fn(name, lit.Body)
			}
			return true
		})
	}
}

// inspectShallow walks body but does not descend into nested function
// literals, so per-function-scope analyses don't double-count statements
// that belong to an inner scope.
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// pkgNameIn reports whether the pass's package name is one of names.
func pkgNameIn(p *Pass, names ...string) bool {
	for _, n := range names {
		if p.Pkg.Name() == n {
			return true
		}
	}
	return false
}

// constString returns the compile-time constant string value of e, if any.
func constString(p *Pass, e ast.Expr) (string, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
