package gulfstream

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// srcPackage is one package of a module, type-checked from source.
type srcPackage struct {
	path  string
	files []*ast.File
	test  map[*ast.File]bool // the package's _test.go files
	info  *types.Info
	pkg   *types.Package
}

// loadModule type-checks every package of the module in dir from source,
// in import-path order, against the gc export data of its dependencies,
// which one `go list -export -deps` builds; one importer serves the whole
// module. With tests set, a package that has tests is checked once, as its
// test variant: its non-test files and its _test.go files together.
// Generated test mains are skipped. File names are relative to the working
// directory, so a reported position can be opened from it.
func loadModule(t *testing.T, fset *token.FileSet, dir string, tests bool) []srcPackage {
	t.Helper()
	args := []string{"list", "-export", "-deps", "-f",
		"{{.ImportPath}}\t{{.Export}}\t{{with .Module}}{{.Main}}{{end}}\t{{.Dir}}\t{{join .GoFiles \",\"}}\t{{.ForTest}}\t{{join .TestGoFiles \",\"}}"}
	if tests {
		args = append(args, "-test")
	}
	cmd := exec.Command("go", append(args, "./...")...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	exports := map[string]string{}
	var local [][]string // import path, directory from here, files, which of them are tests
	for _, line := range strings.Split(strings.TrimSuffix(string(out), "\n"), "\n") {
		f := strings.Split(line, "\t")
		exports[f[0]] = f[1]
		if f[2] != "true" || strings.HasSuffix(f[0], ".test") {
			continue // the standard library, another module, a test main
		}
		path, testFiles := f[0], ""
		switch {
		case f[5] != "": // p [p.test]: GoFiles holds the _test.go files too
			path, testFiles = f[5], f[6]
		case tests && f[6] != "":
			continue // its test variant follows
		}
		rel, err := filepath.Rel(wd, f[3])
		if err != nil {
			t.Fatal(err)
		}
		local = append(local, []string{path, rel, f[4], testFiles})
	}
	slices.SortFunc(local, func(a, b []string) int { return strings.Compare(a[0], b[0]) })
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	var pkgs []srcPackage
	for _, p := range local {
		sp := srcPackage{path: p[0], test: map[*ast.File]bool{}}
		tests := strings.Split(p[3], ",")
		for _, name := range strings.Split(p[2], ",") {
			f, err := parser.ParseFile(fset, filepath.Join(p[1], name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			sp.files = append(sp.files, f)
			sp.test[f] = slices.Contains(tests, name)
		}
		sp.info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		if sp.pkg, err = (&types.Config{Importer: imp}).Check(p[0], fset, sp.files, sp.info); err != nil {
			t.Fatalf("type-check %s: %v", p[0], err)
		}
		pkgs = append(pkgs, sp)
	}
	return pkgs
}
