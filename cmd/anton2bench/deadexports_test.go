package main

import (
	"fmt"
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

// auditRoots are the module directories whose Go files the guard reads:
// everything that declares or uses an anton2 name.
var auditRoots = []string{"cmd", "internal", "examples", "benchmark"}

// stdlibMethods are method names a standard-library interface calls for the
// type (error, fmt.Stringer, errors.Unwrap, json.Marshaler, sort.Interface,
// heap.Interface, io.*, http.Handler, ...): such a method is used even when no
// program in the module names it.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true,
	"UnmarshalText": true, "MarshalBinary": true, "UnmarshalBinary": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadFrom": true, "WriteTo": true, "ServeHTTP": true, "Set": true,
}

// srcFile is one parsed Go file of the module.
type srcFile struct {
	dir  string // directory relative to the module root, slash-separated
	test bool   // a _test.go file
	ast  *ast.File
}

// deadExports returns, sorted, every exported package-level func, type, var
// or const and every exported method declared in a non-test file of an
// importable package that only its own package's tests name: no non-test
// file anywhere and no test file in another directory names it, except at
// its declaration. (A name another package's tests reach is a test seam
// that cannot move into a _test.go file.) A package-level name reads
// "dir.Name", a method "dir.Recv.Method". Members of an iota const block and
// methods a stdlib interface calls are exempt. Names match by identifier,
// not by type: any use of the same spelling keeps a declaration live.
func deadExports(files []srcFile) []string {
	type candidate struct {
		dir, qual string
		id        *ast.Ident
	}
	var cands []candidate
	decl := map[*ast.Ident]bool{}
	add := func(dir, qual string, id *ast.Ident) {
		if id.IsExported() {
			cands = append(cands, candidate{dir, dir + "." + qual, id})
			decl[id] = true
		}
	}
	for _, f := range files {
		if f.test || f.ast.Name.Name == "main" {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(f.dir, d.Name.Name, d.Name)
				} else if !stdlibMethods[d.Name.Name] {
					add(f.dir, recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name)
				}
			case *ast.GenDecl:
				if d.Tok == token.CONST && usesIota(d) {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(f.dir, s.Name.Name, s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(f.dir, id.Name, id)
						}
					}
				}
			}
		}
	}

	inCode := map[string]bool{}             // named by a non-test file
	inTests := map[string]map[string]bool{} // name -> dirs of the test files naming it
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			switch {
			case !ok || decl[id]:
			case !f.test:
				inCode[id.Name] = true
			default:
				if inTests[id.Name] == nil {
					inTests[id.Name] = map[string]bool{}
				}
				inTests[id.Name][f.dir] = true
			}
			return true
		})
	}
	var dead []string
	for _, c := range cands {
		live := inCode[c.id.Name]
		for dir := range inTests[c.id.Name] {
			live = live || dir != c.dir
		}
		if !live {
			dead = append(dead, c.qual)
		}
	}
	sort.Strings(dead)
	return dead
}

// recvName is the type name of a method receiver: T, *T, T[K] or *T[K].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return fmt.Sprintf("%T", x)
		}
	}
}

// usesIota reports whether a const block is an enumeration: its members are
// used by value (as indices or switch labels), not necessarily by name.
func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// parseModule parses every .go file under the audit roots of the module at
// root, skipping testdata directories.
func parseModule(t *testing.T, root string) []srcFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	for _, top := range auditRoots {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			files = append(files, srcFile{dir: filepath.ToSlash(rel), test: strings.HasSuffix(path, "_test.go"), ast: f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestNoDeadExports fails on every exported name that only its own package's
// tests use: delete it, or move it into the test that needs it.
func TestNoDeadExports(t *testing.T) {
	for _, name := range deadExports(parseModule(t, filepath.Join("..", ".."))) {
		t.Errorf("dead export %s: no program uses it; delete it or move it into the test that needs it", name)
	}
}

// TestDeadExportsRules runs the guard's core over small in-memory modules.
func TestDeadExportsRules(t *testing.T) {
	lib := `package lib
func Used() {}
func Dead() {}
`
	cases := []struct {
		name string
		srcs map[string]string // path relative to the module root -> source
		want []string          // dead names, sorted
	}{
		{"dead func", map[string]string{
			"internal/lib/lib.go": lib,
			"cmd/app/main.go":     "package main\nfunc main() { lib.Used() }\n",
		}, []string{"internal/lib.Dead"}},
		{"used only by its own tests", map[string]string{
			"internal/lib/lib.go":      lib,
			"internal/lib/lib_test.go": "package lib\nfunc TestDead() { Dead() }\n",
			"cmd/app/main.go":          "package main\nfunc main() { lib.Used() }\n",
		}, []string{"internal/lib.Dead"}},
		{"used by another package's tests", map[string]string{
			"internal/lib/lib.go":      lib,
			"internal/use/use_test.go": "package use\nfunc TestX() { lib.Used(); lib.Dead() }\n",
		}, nil},
		{"used from benchmark/ and examples/", map[string]string{
			"internal/lib/lib.go":   lib,
			"benchmark/main.go":     "package main\nfunc main() { lib.Used() }\n",
			"examples/demo/main.go": "package main\nfunc main() { lib.Dead() }\n",
			// A program's own exported names are not an API.
			"benchmark/probe.go": "package main\nfunc Probe() {}\n",
		}, nil},
		{"used within its own package", map[string]string{
			"internal/lib/lib.go": "package lib\nfunc Helper() {}\nfunc run() { Helper() }\n",
		}, nil},
		{"dead method", map[string]string{
			"internal/lib/lib.go": "package lib\ntype T struct{}\nfunc (t *T) Peek() {}\nfunc New() *T { return new(T) }\nfunc run() { New() }\n",
		}, []string{"internal/lib.T.Peek"}},
		{"iota member and stdlib interface method", map[string]string{
			"internal/lib/lib.go": `package lib
type Kind int
const (
	A Kind = iota
	B
)
func (k Kind) String() string { return "" }
type Err struct{}
func (Err) Error() string { return "" }
func run() { _ = Kind(0); _ = Err{} }
`,
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			var files []srcFile
			for path, src := range tc.srcs {
				f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, srcFile{dir: filepath.ToSlash(filepath.Dir(path)), test: strings.HasSuffix(path, "_test.go"), ast: f})
			}
			if got := deadExports(files); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("dead = %q, want %q", got, tc.want)
			}
		})
	}
}
