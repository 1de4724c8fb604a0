package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow lists what the surface guard accepts without a non-test
// caller, each with its reason. A key is a package name under internal/
// ("check"), which covers the whole package, or a name as the guard reports
// it ("db.Store.Snapshot"). An entry that excuses nothing fails the guard, so
// the list cannot outlive its reasons.
var surfaceAllow = map[string]string{
	"check":     "differential harness: its properties are called by tests by design",
	"metamorph": "metamorphic harness: its oracles are called by tests by design",
	"db.Store.Snapshot": "ROADMAP item 4 either serves reads from snapshots " +
		"or deletes Snapshot with both implementations",
	"cq.IsSubqueryOf": "the brute-force reference that the tests of cq and " +
		"split compare the subquery search against",
	"split.Naive": "the no-split baseline (§5's naive approach) that the " +
		"insertion tests of core and split compare the split strategies against",
	"agg.GroupValue": "reads one group's aggregate: the tests of agg and " +
		"sqlfe check aggregate values through it",
	"graph.Graph.Weight": "reads one edge weight: the tests of graph and " +
		"split check the query graph through it",
}

// TestNoUnusedSurface fails on surface under internal/ that no caller
// needs. It type-checks every non-test Go file of the repository (the root,
// cmd/, internal/, examples/ and the bench/ module) and reports two kinds of
// finding:
//
//   - an exported package-level name, method or struct field, or any
//     package-level function or method, under internal/ that no non-test
//     code references;
//   - an exported field of an internal/ struct named *Config, *Options or
//     *Opts that no non-test code outside its package and outside examples/
//     sets.
//
// A field that no caller sets is an option with one value in use, so it
// should be a constant; a name only tests reference is code no command runs.
// surfaceAllow lists the exceptions. The check and metamorph harnesses are
// excused whole, but what they call counts as used: qocobench runs the
// metamorphic sweep.
func TestNoUnusedSurface(t *testing.T) {
	if raceEnabled {
		t.Skip("type-checks the standard library from source: slow under -race, and it starts no goroutine")
	}
	findings, err := scanSurface(".", newSourceImporter(), surfaceAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// newSourceImporter returns an importer that type-checks the standard
// library from GOROOT's source, so the guard needs neither export data nor a
// go command. Packages with cgo files would make it run cgo; with cgo off
// they build from their pure-Go files instead. The source importer reads
// build.Default, so that is where cgo is turned off.
func newSourceImporter() types.ImporterFrom {
	build.Default.CgoEnabled = false
	return importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
}

// modulePath is the import path of the module at the repository root. The
// bench/ module is repro/bench, so every directory's import path is
// modulePath joined with its path from the root.
const modulePath = "repro"

// errorsInterfaces declares the methods that errors.Is, As and Unwrap call
// through interfaces local to their function bodies, which the source
// importer does not type-check.
const errorsInterfaces = `package errorsiface
type (
	is        interface{ Is(error) bool }
	as        interface{ As(any) bool }
	unwrap    interface{ Unwrap() error }
	unwrapAll interface{ Unwrap() []error }
)`

// surfacePkg is one package of the repository.
type surfacePkg struct {
	path    string // import path
	dir     string // slash-separated, relative to the root
	files   []*ast.File
	types   *types.Package
	info    *types.Info
	loading bool
}

// surfaceScan type-checks the repository's packages and collects which
// objects non-test code references and which option fields it sets.
type surfaceScan struct {
	root string
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*surfacePkg
	used map[types.Object]bool
	set  map[types.Object]bool
}

// scanSurface returns the guard's findings for the repository at root, one
// "file:line: message" string each, sorted.
func scanSurface(root string, std types.ImporterFrom, allow map[string]string) ([]string, error) {
	s := &surfaceScan{
		root: root,
		fset: token.NewFileSet(),
		std:  std,
		pkgs: make(map[string]*surfacePkg),
		used: make(map[types.Object]bool),
		set:  make(map[types.Object]bool),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(s.pkgs))
	for path := range s.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := s.ImportFrom(path, "", 0); err != nil {
			return nil, err
		}
	}
	ifaces, err := s.interfaces()
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		p := s.pkgs[path]
		s.references(p)
		s.sets(p)
		s.implements(p, ifaces)
	}

	type finding struct {
		pos  token.Pos
		name string
		msg  string
	}
	var found []finding
	for _, path := range paths {
		p := s.pkgs[path]
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		report := func(obj types.Object, name, msg string) {
			found = append(found, finding{obj.Pos(), p.types.Name() + "." + name, msg})
		}
		unused := func(obj types.Object, name string) {
			_, fn := obj.(*types.Func)
			if (obj.Exported() || fn) && !s.used[obj] {
				report(obj, name, "no non-test code references it")
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			unused(obj, name)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				unused(m, name+"."+m.Name())
			}
			switch u := named.Underlying().(type) {
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					m := u.ExplicitMethod(i)
					unused(m, name+"."+m.Name())
				}
			case *types.Struct:
				option := strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") ||
					strings.HasSuffix(name, "Opts")
				for i := 0; i < u.NumFields(); i++ {
					f := u.Field(i)
					unused(f, name+"."+f.Name())
					if option && f.Exported() && s.used[f] && !s.set[f] {
						report(f, name+"."+f.Name(), fmt.Sprintf(
							"no non-test code outside package %s and examples/ sets it", p.types.Name()))
					}
				}
			}
		}
	}

	excused := make(map[string]bool)
	var out []string
	for _, f := range found {
		key := f.name
		if _, ok := allow[key]; !ok {
			key = key[:strings.IndexByte(key, '.')]
		}
		if _, ok := allow[key]; ok {
			excused[key] = true
			continue
		}
		pos := s.fset.Position(f.pos)
		file, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf("%s:%d: %s: %s", filepath.ToSlash(file), pos.Line, f.name, f.msg))
	}
	for key := range allow {
		if !excused[key] {
			out = append(out, fmt.Sprintf("surface_test.go: allowlist entry %q excuses nothing: drop it", key))
		}
	}
	sort.Strings(out)
	return out, nil
}

// load parses the non-test Go files of every directory under the root,
// skipping what the go command skips: testdata and names starting with "."
// or "_".
func (s *surfaceScan) load() error {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return filepath.WalkDir(s.root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		rel, err := filepath.Rel(s.root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel != "." && (strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_") ||
			e.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := ctxt.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok || (err == nil && len(bp.GoFiles) == 0) {
			return nil
		}
		if err != nil {
			return err
		}
		p := &surfacePkg{path: modulePath, dir: rel}
		if rel != "." {
			p.path += "/" + rel
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(s.fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		s.pkgs[p.path] = p
		return nil
	})
}

// ImportFrom type-checks a repository package on first import and hands
// every other path to the standard library's importer.
func (s *surfaceScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	p, ok := s.pkgs[path]
	if !ok {
		return s.std.ImportFrom(path, dir, mode)
	}
	if p.types != nil {
		return p.types, nil
	}
	if p.loading {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	p.loading = true
	p.info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: s}
	var err error
	p.types, err = conf.Check(path, s.fset, p.files, p.info)
	return p.types, err
}

// Import implements types.Importer.
func (s *surfaceScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

// references marks every object p's code refers to. The type named in a
// method's receiver does not count: a type only its own methods name is
// unused.
func (s *surfaceScan) references(p *surfacePkg) {
	recv := make(map[*ast.Ident]bool)
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range p.info.Uses {
		if !recv[id] {
			s.used[obj] = true
		}
	}
}

// sets marks the struct fields p's code sets from outside their package: a
// composite-literal key, the left of an assignment or an increment. Code
// under examples/ sets nothing. A field whose address is passed to package
// flag is set wherever the binding is.
func (s *surfaceScan) sets(p *surfacePkg) {
	example := p.dir == "examples" || strings.HasPrefix(p.dir, "examples/")
	mark := func(e ast.Expr, anywhere bool) {
		var obj types.Object
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj = p.info.Uses[e]
		case *ast.SelectorExpr:
			obj = p.info.Uses[e.Sel]
		}
		if v, ok := obj.(*types.Var); ok && v.IsField() &&
			(anywhere || (!example && v.Pkg() != p.types)) {
			s.set[v] = true
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						mark(kv.Key, false)
					}
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					if _, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						mark(e, false)
					}
				}
			case *ast.IncDecStmt:
				if _, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					mark(n.X, false)
				}
			case *ast.CallExpr:
				if fn, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if obj := p.info.Uses[fn.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "flag" {
						for _, a := range n.Args {
							if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND {
								if _, ok := ast.Unparen(u.X).(*ast.SelectorExpr); ok {
									mark(u.X, true)
								}
							}
						}
					}
				}
			}
			return true
		})
	}
}

// interfaces returns every interface a method may be called through: those
// the repository's code names, function-local ones included, the exported
// ones of every standard package it imports, and the ones package errors
// declares inside its functions.
func (s *surfaceScan) interfaces() ([]*types.Interface, error) {
	seen := make(map[*types.Interface]bool)
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	addScope := func(pkg *types.Package) {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	f, err := parser.ParseFile(s.fset, "errorsiface.go", errorsInterfaces, 0)
	if err != nil {
		return nil, err
	}
	pkg, err := new(types.Config).Check("errorsiface", s.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	addScope(pkg)

	visited := make(map[*types.Package]bool)
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		if _, ours := s.pkgs[pkg.Path()]; !ours {
			addScope(pkg)
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range s.pkgs {
		for _, tv := range p.info.Types {
			add(tv.Type)
		}
		walk(p.types)
	}
	return out, nil
}

// implements marks, for every concrete type p declares, the methods through
// which it satisfies any of ifaces. An interface's own methods count only
// when called.
func (s *surfaceScan) implements(p *surfacePkg, ifaces []*types.Interface) {
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		for _, it := range ifaces {
			if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				// A method an embedded interface promotes is that
				// interface's own, which counts only when called.
				obj := mset.Lookup(m.Pkg(), m.Name()).Obj()
				if recv := obj.Type().(*types.Signature).Recv(); !types.IsInterface(recv.Type()) {
					s.used[obj] = true
				}
			}
		}
	}
}

// TestSurfaceGuardRules pins the guard's rules on small synthetic
// repositories: each case lists the files it adds to a base of one internal
// package and one command, and the names the guard must report. Each rule
// has a case that fails without it.
func TestSurfaceGuardRules(t *testing.T) {
	if raceEnabled {
		t.Skip("type-checks the standard library from source: slow under -race, and it starts no goroutine")
	}
	base := map[string]string{
		"internal/a/a.go": "package a\n\nfunc Used() {}\n",
		"cmd/x/main.go":   "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { a.Used() }\n",
	}
	cases := []struct {
		name  string
		files map[string]string
		allow map[string]string
		want  []string
	}{{
		name:  "unreferenced exported function",
		files: map[string]string{"internal/a/dead.go": "package a\n\nfunc Dead() {}\n"},
		want:  []string{"a.Dead: no non-test code references it"},
	}, {
		name:  "type named only by its own methods' receivers",
		files: map[string]string{"internal/a/t.go": "package a\n\ntype T struct{}\n\nfunc (t T) m() {}\n"},
		want:  []string{"a.T: no non-test code references it", "a.T.m: no non-test code references it"},
	}, {
		name: "interface method only a wrapper's embedding provides",
		files: map[string]string{
			"internal/a/i.go": "package a\n\ntype I interface {\n\tM()\n\tN()\n}\n",
			"cmd/y/main.go": "package main\n\nimport \"repro/internal/a\"\n\n" +
				"type wrap struct{ a.I }\n\nfunc use(i a.I) { i.N() }\n\nfunc main() { use(wrap{}) }\n",
		},
		want: []string{"a.I.M: no non-test code references it"},
	}, {
		name: "name referenced only from a test",
		files: map[string]string{
			"internal/a/dead.go":      "package a\n\nfunc Dead() {}\n",
			"internal/a/dead_test.go": "package a\n\nimport \"testing\"\n\nfunc TestDead(t *testing.T) { Dead() }\n",
		},
		want: []string{"a.Dead: no non-test code references it"},
	}, {
		name: "unexported function and method referenced only from a test",
		files: map[string]string{
			"internal/a/dead.go": "package a\n\ntype T struct{}\n\nfunc (T) M() { helper() }\n\n" +
				"func (T) dead() {}\n\nfunc helper() {}\n\nfunc dead() {}\n",
			"internal/a/dead_test.go": "package a\n\nimport \"testing\"\n\n" +
				"func TestDead(t *testing.T) { dead(); T{}.dead() }\n",
			"cmd/y/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { a.T{}.M() }\n",
		},
		want: []string{"a.dead: no non-test code references it", "a.T.dead: no non-test code references it"},
	}, {
		name: "option field set only under examples/",
		files: map[string]string{
			"internal/a/config.go": "package a\n\ntype Config struct{ N int }\n\nfunc Run(c Config) int { return c.N }\n",
			"cmd/y/main.go":        "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { a.Run(a.Config{}) }\n",
			"examples/e/main.go":   "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { a.Run(a.Config{N: 1}) }\n",
		},
		want: []string{"a.Config.N: no non-test code outside package a and examples/ sets it"},
	}, {
		name:  "referenced allowlist entry",
		allow: map[string]string{"a.Used": "a stale reason"},
		want:  []string{`allowlist entry "a.Used" excuses nothing`},
	}, {
		name: "method reached only through a function-local interface",
		files: map[string]string{
			"internal/a/t.go": "package a\n\ntype T struct{}\n\nfunc (T) Err() error { return nil }\n",
			"cmd/y/main.go": "package main\n\nimport \"repro/internal/a\"\n\n" +
				"func check(x any) error {\n\ttype errer interface{ Err() error }\n" +
				"\tif e, ok := x.(errer); ok {\n\t\treturn e.Err()\n\t}\n\treturn nil\n}\n\n" +
				"func main() { _ = check(a.T{}) }\n",
		},
	}, {
		name: "an error's Is and Unwrap",
		files: map[string]string{
			"internal/a/err.go": "package a\n\ntype E struct{ err error }\n\n" +
				"func (e E) Error() string { return \"e\" }\n\n" +
				"func (e E) Is(target error) bool { return target == e.err }\n\n" +
				"func (e E) Unwrap() error { return e.err }\n",
			"cmd/y/main.go": "package main\n\nimport \"repro/internal/a\"\n\n" +
				"func main() {\n\tvar err error = a.E{}\n\tprintln(err.Error())\n}\n",
		},
	}, {
		name: "field bound with flag.IntVar in its own package",
		files: map[string]string{
			"internal/a/config.go": "package a\n\nimport \"flag\"\n\ntype Config struct{ F int }\n\n" +
				"func (c *Config) Bind() { flag.IntVar(&c.F, \"f\", 0, \"\") }\n",
			"cmd/y/main.go": "package main\n\nimport \"repro/internal/a\"\n\n" +
				"func main() {\n\tvar c a.Config\n\tc.Bind()\n}\n",
		},
	}}
	std := newSourceImporter()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			for _, files := range []map[string]string{base, c.files} {
				for name, src := range files {
					path := filepath.Join(root, filepath.FromSlash(name))
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			findings, err := scanSurface(root, std, c.allow)
			if err != nil {
				t.Fatal(err)
			}
			if len(findings) != len(c.want) {
				t.Fatalf("findings %q, want %d matching %q", findings, len(c.want), c.want)
			}
			for i, want := range c.want {
				if !strings.Contains(findings[i], want) {
					t.Errorf("finding %q, want one containing %q", findings[i], want)
				}
			}
		})
	}
}
