package parallel

import (
	"go/ast"
	"go/parser"
	gotoken "go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestExportsHaveCallers keeps the toolbox from growing back: every
// exported function of this package must be referenced somewhere in the
// module (the nested benchmark/ module included) other than at its own
// declaration and in this package's own tests. A primitive only its tests
// call is deleted, not kept for a caller that may come.
func TestExportsHaveCallers(t *testing.T) {
	const importPath = "ligra/internal/parallel"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := gotoken.NewFileSet()
	uncalled := map[string]bool{}
	decls := map[*ast.Ident]bool{}
	var own, others []*ast.File // files that may hold a caller: this package's, the rest of the module's
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		inPkg := filepath.Dir(path) == self
		if inPkg && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if !inPkg {
			others = append(others, f)
			return nil
		}
		own = append(own, f)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				uncalled[fd.Name.Name] = true
				decls[fd.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(uncalled) == 0 {
		t.Fatal("found no exported functions: the walk is broken")
	}
	for _, f := range own {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				delete(uncalled, id.Name)
			}
			return true
		})
	}
	for _, f := range others {
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == importPath {
				local = "parallel"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					delete(uncalled, sel.Sel.Name)
				}
			}
			return true
		})
	}
	var names []string
	for name := range uncalled {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		t.Errorf("exported functions with no caller outside this package's tests: %s", strings.Join(names, ", "))
	}
}
