package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestEveryConfigFieldIsSet keeps Config down to options some caller uses.
// An option that no command, server, experiment or benchmark sets is code
// that no measurement or guarantee depends on, so it should be deleted rather
// than kept. The test parses every non-test Go file of the module outside
// internal/core and examples/ (bench/ included: the benchmark is a caller)
// and fails with the name of each exported field that none of them sets.
//
// A field counts as set when it is a key of a core.Config literal, or the
// selector on the left of an assignment. Without type information an
// assignment matches by field name alone, whatever its receiver, so the test
// errs toward passing.
func TestEveryConfigFieldIsSet(t *testing.T) {
	root := filepath.Join("..", "..")
	set := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // WalkDir only visits paths under root
		rel = filepath.ToSlash(rel)
		if e.IsDir() {
			if rel != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata" ||
				rel == "internal/core" || rel == "examples") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		collectConfigFields(f, set)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unset []string
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; typ.Field(i).IsExported() && !set[name] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("core.Config fields no caller sets: %s", strings.Join(unset, ", "))
	}
}

// collectConfigFields adds to set the keys of the file's core.Config
// literals and the field names assigned through a selector.
func collectConfigFields(f *ast.File, set map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			sel, ok := n.Type.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Config" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "core" {
				return true
			}
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						set[key.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					set[sel.Sel.Name] = true
				}
			}
		}
		return true
	})
}
