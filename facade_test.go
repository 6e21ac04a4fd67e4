package crosslayer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFacadeExportsAreReferenced keeps crosslayer.go honest: every exported
// name it declares must be used by something a user can run or read — a
// command under cmd/, an example, or a root-package test. A re-export nobody
// spells is API surface with no caller to break and no test to pin it;
// delete it (importers inside this module reach internal/ directly).
func TestFacadeExportsAreReferenced(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "crosslayer.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported = append(exported, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported = append(exported, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exported = append(exported, n.Name)
						}
					}
				}
			}
		}
	}
	if len(exported) == 0 {
		t.Fatal("found no exported declarations in crosslayer.go")
	}

	// Users: main packages spell crosslayer.Name; root-package tests may
	// also spell the bare Name.
	used := map[string]bool{}
	collect := func(path string, bare bool) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// other.Name is some other package's (or value's) Name.
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "crosslayer" {
					used[n.Sel.Name] = true
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if bare {
					used[n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	}
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				collect(path, false)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		collect(path, true)
	}

	var unused []string
	for _, name := range exported {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d of %d exported names in crosslayer.go are referenced by nothing in cmd/, examples/ or the root tests:\n  %s",
			len(unused), len(exported), strings.Join(unused, "\n  "))
	}
}
