// Package doccheck holds the godoc bar that store/, server/ and
// internal/obs test themselves against, so the three packages share one
// rule instead of three copies of it.
package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// Check fails t once for every exported type, function, constant or
// variable — and every exported method on an exported type — that
// carries no doc comment in the non-test Go files of dir. Files built
// only on other platforms count too.
func Check(t testing.TB, dir string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	report := func(pos token.Pos, what string) {
		t.Helper()
		t.Errorf("undocumented exported symbol: %s: %s", fset.Position(pos), what)
	}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if recv := receiverTypeName(d); recv != "" && !ast.IsExported(recv) {
					continue // surfaced only through interfaces, if at all
				}
				if d.Doc.Text() == "" {
					report(d.Pos(), "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && d.Doc.Text() == "" && s.Doc.Text() == "" {
							report(s.Pos(), "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() && d.Doc.Text() == "" && s.Doc.Text() == "" {
								report(name.Pos(), "value "+name.Name)
							}
						}
					}
				}
			}
		}
	}
}

// receiverTypeName returns the name of a method's receiver type, or ""
// for a plain function.
func receiverTypeName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch t := typ.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return t.X.(*ast.Ident).Name
	case *ast.IndexListExpr:
		return t.X.(*ast.Ident).Name
	}
	return ""
}
