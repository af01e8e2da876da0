package vflmarket

// The guard that keeps test-only code out of the production packages: an
// exported name declared in a non-test file under internal/ must be used
// somewhere other than its own package's tests — by non-test code anywhere
// in the repository (cmd/loadgen included) or by another package's tests,
// which cannot reach a _test.go file. A name only its own tests use belongs
// in those tests' files.
//
// The check matches identifiers by name, without type information, so a
// dead method that shares its name with a live one passes unseen.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// stdlibMethods are method names the standard library calls through its
// interfaces (fmt.Stringer, error, errors.Unwrap, errors.Is), so they need
// no caller in the repository.
var stdlibMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true, "Is": true}

// exportDecl is one exported name the guard holds to the rule.
type exportDecl struct {
	name string // the identifier
	dir  string // its package's directory, slash-separated
	pos  string // file:line, for the report
}

// testOnlyExports parses every Go file in fsys and reports, as
// "file:line: name", each exported name declared in a non-test file under
// internal/ (outside internal/chaos, a test harness by design) that nothing
// uses but its own package's tests.
func testOnlyExports(fsys fs.FS) ([]string, error) {
	fset := token.NewFileSet()
	var decls []exportDecl
	declIdents := make(map[*ast.Ident]bool)
	type fileIdents struct {
		dir    string
		test   bool
		idents []*ast.Ident
	}
	var files []fileIdents
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, test := path.Dir(p), strings.HasSuffix(p, "_test.go")
		if !test && strings.HasPrefix(dir+"/", "internal/") && !strings.HasPrefix(dir+"/", "internal/chaos/") {
			decls = append(decls, exportedDecls(fset, f, dir, declIdents)...)
		}
		fi := fileIdents{dir: dir, test: test}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field: // a struct field, parameter or interface method declares its names
				for _, id := range n.Names {
					declIdents[id] = true
				}
			case *ast.Ident:
				fi.idents = append(fi.idents, n)
			}
			return true
		})
		files = append(files, fi)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// live[name] lists the package directories whose tests use name; ""
	// stands for a use from non-test code, which makes any declaration of
	// the name live.
	live := make(map[string]map[string]bool)
	for _, fi := range files {
		for _, id := range fi.idents {
			if declIdents[id] {
				continue
			}
			from := ""
			if fi.test {
				from = fi.dir
			}
			if live[id.Name] == nil {
				live[id.Name] = make(map[string]bool)
			}
			live[id.Name][from] = true
		}
	}
	var offenders []string
	for _, d := range decls {
		used := false
		for from := range live[d.name] {
			if from != d.dir {
				used = true
				break
			}
		}
		if !used {
			offenders = append(offenders, d.pos+": "+d.name)
		}
	}
	sort.Strings(offenders)
	return offenders, nil
}

// exportedDecls lists f's exported top-level names and exported methods,
// marking each declaring identifier so it does not count as its own use.
func exportedDecls(fset *token.FileSet, f *ast.File, dir string, declIdents map[*ast.Ident]bool) []exportDecl {
	var out []exportDecl
	add := func(id *ast.Ident) {
		declIdents[id] = true
		if id.IsExported() {
			p := fset.Position(id.Pos())
			out = append(out, exportDecl{name: id.Name, dir: dir, pos: p.Filename + ":" + strconv.Itoa(p.Line)})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil && stdlibMethods[d.Name.Name] {
				declIdents[d.Name] = true
				continue
			}
			add(d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id)
					}
				}
			}
		}
	}
	return out
}

// TestNoTestOnlyExports runs the guard over the repository.
func TestNoTestOnlyExports(t *testing.T) {
	offenders, err := testOnlyExports(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range offenders {
		t.Errorf("%s is used only by its own package's tests: move it into them, or delete it", o)
	}
}

// TestTestOnlyExportsFindsPlant feeds the guard a planted tree with one
// export of each disposition and requires that it flags exactly the ones
// nothing but their own tests reach.
func TestTestOnlyExportsFindsPlant(t *testing.T) {
	fsys := fstest.MapFS{
		"internal/p/p.go": {Data: []byte(`package p

type T struct{}

func (T) String() string { return "" }
func (T) Served() {}
func (T) OnlyOwnTests() {}
func Live() {}
func ForOtherTests() {}
func OnlyOwnTests2() {}
func Unused() {}
var Var = 1
`)},
		"internal/p/p_test.go": {Data: []byte(`package p

func use() { T{}.OnlyOwnTests(); OnlyOwnTests2(); _ = Var }
`)},
		"internal/q/q_test.go": {Data: []byte(`package q

func use() { p.ForOtherTests() }
`)},
		"internal/chaos/c.go":      {Data: []byte("package chaos\n\nfunc Harness() {}\n")},
		"cmd/loadgen/main.go":      {Data: []byte("package main\n\nfunc main() { p.Live(); p.T{}.Served() }\n")},
		"internal/p/testdata/x.go": {Data: []byte("package x\n\nfunc main() { p.Unused() }\n")},
	}
	got, err := testOnlyExports(fsys)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/p/p.go:10: OnlyOwnTests2",
		"internal/p/p.go:11: Unused",
		"internal/p/p.go:12: Var",
		"internal/p/p.go:7: OnlyOwnTests",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("guard on the planted tree reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
