package algo

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestOneSpellingPerAlgorithm keeps the panic-on-error twins from coming
// back: a cancellable algorithm has one entry point, the ctx-first one. No
// exported function X of this package may sit beside an exported XCtx,
// and the public package ligra, whose ctx-first functions carry no
// suffix, exports no ...Ctx function at all.
func TestOneSpellingPerAlgorithm(t *testing.T) {
	algo := exportedFuncs(t, ".")
	var twins []string
	for name := range algo {
		if plain, ok := strings.CutSuffix(name, "Ctx"); ok && algo[plain] {
			twins = append(twins, plain+"/"+name)
		}
	}
	sort.Strings(twins)
	if len(twins) > 0 {
		t.Errorf("internal/algo spells an algorithm twice: %s", strings.Join(twins, ", "))
	}

	var suffixed []string
	for name := range exportedFuncs(t, filepath.Join("..", "..")) {
		if strings.HasSuffix(name, "Ctx") {
			suffixed = append(suffixed, name)
		}
	}
	sort.Strings(suffixed)
	if len(suffixed) > 0 {
		t.Errorf("package ligra exports ...Ctx functions: %s", strings.Join(suffixed, ", "))
	}
}

// TestOneSpellingCtxFirst keeps one calling convention: every loop takes
// the ctx it runs under. On the query path — internal/algo, core and
// delta — no call hands a ctx-first function nil, and no code
// mints a root context.Background() or context.TODO() to pass instead of
// the one it received; internal/parallel and internal/core export no
// ...Ctx twin of a plain form.
func TestOneSpellingCtxFirst(t *testing.T) {
	root := filepath.Join("..", "..")
	ctxFirst := map[string]bool{} // names of functions and methods taking a ctx first
	walkGo(t, root, func(path string, f *ast.File) {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && len(fd.Type.Params.List) > 0 && isContextType(fd.Type.Params.List[0].Type) {
				ctxFirst[fd.Name.Name] = true
			}
		}
	})
	var bad []string
	for _, pkg := range []string{"algo", "core", "delta"} {
		walkGo(t, filepath.Join(root, "internal", pkg), func(path string, f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isIdent(sel.X, "context") && (sel.Sel.Name == "Background" || sel.Sel.Name == "TODO") {
					bad = append(bad, fmt.Sprintf("%s: context.%s()", path, sel.Sel.Name))
				}
				if name := calleeName(call.Fun); ctxFirst[name] && len(call.Args) > 0 && isIdent(call.Args[0], "nil") {
					bad = append(bad, fmt.Sprintf("%s: %s(nil, ...)", path, name))
				}
				return true
			})
		})
	}
	for _, pkg := range []string{"parallel", "core"} {
		walkGo(t, filepath.Join(root, "internal", pkg), func(path string, f *ast.File) {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() && strings.HasSuffix(fd.Name.Name, "Ctx") {
					bad = append(bad, fmt.Sprintf("%s: exports %s", path, fd.Name.Name))
				}
			}
		})
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// walkGo parses every non-test Go file under dir, skipping the nested
// benchmark module, and hands it to fn.
func walkGo(t *testing.T, dir string, fn func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "benchmark":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err == nil {
			fn(path, f)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func isContextType(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && isIdent(sel.X, "context") && sel.Sel.Name == "Context"
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// calleeName is the called function's or method's own name.
func calleeName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.IndexExpr: // an explicit instantiation, F[T](...)
		return calleeName(f.X)
	}
	return ""
}

// exportedFuncs returns the exported package-level functions declared in
// the non-test Go files of dir.
func exportedFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	names := map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				names[fd.Name.Name] = true
			}
		}
	}
	if len(names) == 0 {
		t.Fatalf("found no exported functions in %s: the walk is broken", dir)
	}
	return names
}
