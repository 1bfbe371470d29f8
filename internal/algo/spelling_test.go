package algo

import (
	"go/ast"
	"go/parser"
	"go/token"
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
