package mvcom_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// exportLintAllow lists what may have test callers only, or callers the
// scan cannot see. theory.go states the paper's equations (7)–(8) and
// Theorem 1 so that tests can check the SE kernel against them. The root
// metrics lint calls Registry.MetricNames, and the other three methods
// satisfy standard-library interfaces: math/rand.Source and
// encoding/json's Marshaler and Unmarshaler.
var exportLintAllow = map[string]bool{
	"internal/core/theory.go":     true,
	"obs.Registry.MetricNames":    true,
	"randx.source.Int63":          true,
	"obs.EventType.MarshalJSON":   true,
	"obs.EventType.UnmarshalJSON": true,
}

// goFile is one parsed non-test source file of the scanned tree.
type goFile struct {
	rel  string // slash path under the scanned root
	pkg  string // import path of its directory
	file *ast.File
}

// testOnlyExports parses every non-test .go file under root, the
// directory of module, and returns the functions and methods that no
// non-test file references, as "file:line: pkg.Name" or "file:line:
// pkg.Recv.Name" lines in file order: exported ones declared under
// internal/, and unexported ones declared under internal/ or cmd/ (bar
// init, and main in a main package). A function's reference, outside
// its own declaration, is a selector on an import of its package, under
// whatever name the file imports it, or a bare identifier inside its
// own package. A method's reference is any selector of its name or a
// method of that name in an interface type: names are matched without
// type checking. Every directory the go tool builds holds callers,
// examples/ and benchmark/ included; like the go tool, the scan skips
// testdata and names starting with "." or "_". A key of allow is a
// slash path under root, whose file declares nothing the scan checks,
// or a "pkg.Name" or "pkg.Recv.Name" the scan does not report.
func testOnlyExports(root, module string, allow map[string]bool) ([]string, error) {
	fset := token.NewFileSet()
	var files []goFile
	pkgNames := map[string]string{} // import path → package name
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		pkg := module
		if dir := path.Dir(rel); dir != "." {
			pkg += "/" + dir
		}
		files = append(files, goFile{rel: rel, pkg: pkg, file: f})
		pkgNames[pkg] = f.Name.Name
		return nil
	})
	if err != nil {
		return nil, err
	}

	refs := map[string]bool{}     // "importpath.Name" referenced by some file
	selected := map[string]bool{} // names selected or declared as interface methods
	for _, f := range files {
		imports := map[string]string{} // name in this file → import path
		for _, spec := range f.file.Imports {
			ip, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f.rel, err)
			}
			name := pkgNames[ip]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = ip
		}
		for _, decl := range f.file.Decls {
			self := "" // a function's mentions of itself are not callers
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					selected[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if ip, ok := imports[x.Name]; ok {
							refs[ip+"."+n.Sel.Name] = true
							return false
						}
					}
					ast.Inspect(n.X, visit) // n.Sel names a field or method
					return false
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							selected[name.Name] = true
						}
					}
				case *ast.Field: // parameter, result, field and method names
					ast.Inspect(n.Type, visit)
					return false
				case *ast.KeyValueExpr:
					if _, ok := n.Key.(*ast.Ident); !ok { // an ident key is a field name
						ast.Inspect(n.Key, visit)
					}
					ast.Inspect(n.Value, visit)
					return false
				case *ast.Ident:
					if n.Name != self {
						refs[f.pkg+"."+n.Name] = true
					}
				}
				return true
			}
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if fn.Recv == nil {
					self = fn.Name.Name
				} else {
					ast.Inspect(fn.Recv, visit)
				}
				ast.Inspect(fn.Type, visit)
				if fn.Body != nil {
					ast.Inspect(fn.Body, visit)
				}
				continue
			}
			ast.Inspect(decl, visit)
		}
	}

	var found []string
	for _, f := range files {
		internal := strings.HasPrefix(f.rel, "internal/")
		if (!internal && !strings.HasPrefix(f.rel, "cmd/")) || allow[f.rel] {
			continue
		}
		for _, decl := range f.file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || (fn.Name.IsExported() && !internal) {
				continue
			}
			if name := fn.Name.Name; fn.Recv == nil && (name == "init" || name == "main" && f.file.Name.Name == "main") {
				continue
			}
			name, referenced := f.file.Name.Name+"."+fn.Name.Name, refs[f.pkg+"."+fn.Name.Name]
			if fn.Recv != nil {
				recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*"), "[")
				name = f.file.Name.Name + "." + recv + "." + fn.Name.Name
				referenced = selected[fn.Name.Name]
			}
			if referenced || allow[name] {
				continue
			}
			found = append(found, fmt.Sprintf("%s:%d: %s", f.rel, fset.Position(fn.Pos()).Line, name))
		}
	}
	return found, nil
}

// TestNoTestOnlyExports is the dead-code lint ./ci.sh fast runs: an
// exported function under internal/, or an unexported one under
// internal/ or cmd/, that only _test.go files call (or nothing does) is
// production code that production never runs. Delete it, or move it
// into the test that uses it.
func TestNoTestOnlyExports(t *testing.T) {
	found, err := testOnlyExports(".", "mvcom", exportLintAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s: no non-test file references it", f)
	}
}

// TestNoTestOnlyExportsFixture runs the scan on a fixture module whose
// library declares exported and unexported functions and methods with
// every kind of caller the lint tells apart; see
// testdata/exportlint/internal/lib/lib.go.
func TestNoTestOnlyExportsFixture(t *testing.T) {
	got, err := testOnlyExports(filepath.Join("testdata", "exportlint"), "fixture", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib/lib.go:5: lib.TestOnly",
		"internal/lib/lib.go:8: lib.Recursive",
		"internal/lib/lib.go:17: lib.Shadowed",
		"internal/lib/lib.go:51: lib.V.TestOnlyMethod",
		"internal/lib/lib.go:58: lib.testOnly",
		"internal/lib/lib.go:60: lib.V.testOnlyMethod",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flagged\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	allow := map[string]bool{"internal/lib/lib.go": true}
	if got, err := testOnlyExports(filepath.Join("testdata", "exportlint"), "fixture", allow); err != nil || len(got) != 0 {
		t.Fatalf("allowlisted file flagged %v (err %v)", got, err)
	}
}
