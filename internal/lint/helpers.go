package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// PkgFunc resolves a call to a package-level function of an imported
// package, returning the package's import path and the function name.
// Renamed imports resolve correctly; shadowed package names do not
// false-positive because resolution goes through the type checker.
func (p *Pass) PkgFunc(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pkgName, ok := p.Pkg.Info.Uses[ident].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pkgName.Imported().Path(), sel.Sel.Name, true
}

// Method resolves a method call, returning the import path and name of
// the receiver's named type plus the method name. Pointer receivers are
// unwrapped.
func (p *Pass) Method(call *ast.CallExpr) (recvPath, recvType, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	fn, isFn := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", "", false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", "", false
	}
	obj := named.Obj()
	path := ""
	if obj.Pkg() != nil {
		path = obj.Pkg().Path()
	}
	return path, obj.Name(), fn.Name(), true
}

// IsMapType reports whether the expression's type is (or underlies to)
// a map. Missing type information yields false — no false positives.
func (p *Pass) IsMapType(expr ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// StringConst returns the compile-time constant string value of an
// expression (literal or named constant), if it has one.
func (p *Pass) StringConst(expr ast.Expr) (string, bool) {
	tv, ok := p.Pkg.Info.Types[expr]
	if !ok || tv.Value == nil {
		return "", false
	}
	s, err := strconv.Unquote(tv.Value.ExactString())
	if err != nil {
		return "", false
	}
	return s, true
}

// ImplementsError reports whether the expression's static type
// satisfies the error interface.
func (p *Pass) ImplementsError(expr ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	errIface, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(tv.Type, errIface)
}

// importPathOf unquotes an import spec's path.
func importPathOf(spec *ast.ImportSpec) string {
	path, err := strconv.Unquote(spec.Path.Value)
	if err != nil {
		return ""
	}
	return path
}

// containsReturn reports whether any return statement inside root lies
// strictly between lo and hi.
func containsReturn(root ast.Node, lo, hi token.Pos) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok && lo < ret.Pos() && ret.Pos() < hi {
			found = true
		}
		return !found
	})
	return found
}

// funcDecls yields every function declaration with a body in the
// package.
func (p *Pass) funcDecls() []*ast.FuncDecl {
	var decls []*ast.FuncDecl
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	return decls
}
