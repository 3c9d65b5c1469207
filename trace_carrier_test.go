package infosleuth_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceIDRidesTheContext holds the one-carrier rule for conversation
// trace IDs: inside a process the ID rides the context, and it crosses to
// and from the envelope only in the transport's Call and in
// provenance.Receive. So no function under internal/ or cmd/ takes a
// context.Context together with a parameter named traceID.
func TestTraceIDRidesTheContext(t *testing.T) {
	fset := token.NewFileSet()
	var offenders []string
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var name string
				var typ *ast.FuncType
				switch fn := n.(type) {
				case *ast.FuncDecl:
					name, typ = funcName(fn), fn.Type
				case *ast.FuncLit:
					name, typ = "func literal", fn.Type
				default:
					return true
				}
				if takesContext(typ) && hasParam(typ, "traceID") {
					offenders = append(offenders, filepath.Dir(path)+"."+name)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(offenders) > 0 {
		t.Errorf("%d functions take a traceID beside a context.Context; read it with telemetry.TraceIDFrom instead:\n\t%s",
			len(offenders), strings.Join(offenders, "\n\t"))
	}
}

// funcName renders a declaration as Name or (*Recv).Name.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if idx, ok := recv.(*ast.IndexExpr); ok {
		recv = idx.X
	}
	if star, ok := recv.(*ast.StarExpr); ok {
		if id, ok := star.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fn.Name.Name
		}
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// takesContext reports whether a parameter has type context.Context.
func takesContext(typ *ast.FuncType) bool {
	for _, field := range typ.Params.List {
		if sel, ok := field.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Context" {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "context" {
				return true
			}
		}
	}
	return false
}

// hasParam reports whether a parameter has the name.
func hasParam(typ *ast.FuncType, name string) bool {
	for _, field := range typ.Params.List {
		for _, id := range field.Names {
			if id.Name == name {
				return true
			}
		}
	}
	return false
}
