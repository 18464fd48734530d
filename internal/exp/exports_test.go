package exp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExports lists the package's exported identifiers — top-level
// names, and the methods and fields of exported types — from its
// non-test source, and compares them with testdata/exports.txt, so an
// export comes back only by an edit to that file. cmd/gsbench and the
// bench module compile against these names.
func TestExports(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	add := func(names ...string) {
		if ast.IsExported(names[len(names)-1]) && (len(names) == 1 || ast.IsExported(names[0])) {
			got = append(got, strings.Join(names, "."))
		}
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch r := recv.(type) { // a generic type's receiver: row[C, M]
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				add(recv.(*ast.Ident).Name, d.Name.Name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									add(s.Name.Name, n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n.Name)
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	const path = "testdata/exports.txt"
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.Fields(string(want)); !slices.Equal(got, w) {
		t.Fatalf("exported identifiers differ from %s (-update rewrites it; the diff belongs in the change):\n got: %v\nwant: %v", path, got, w)
	}
}
