package gulfstream

import (
	"bytes"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// planned after a path reference marks a path that does not exist yet:
// `bench/ledger/` (planned).
const planned = " (planned)"

var (
	// docPath matches a backticked reference into the tree: `cmd/gsctl`,
	// `internal/farm/farm.go:42`, `internal/check.ParseOp`, `cmd/gsbench
	// chaos`, `bench/run.sh` (only the path part is captured).
	docPath = regexp.MustCompile("`((?:cmd|internal|examples|scripts|bench)/[^`\\s]*)[`\\s]")
	// docFunc matches a backticked test, benchmark or fuzz function name.
	docFunc = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Z_]\\w*)`")
	// docRootFile matches a backticked bare file name, which means a file
	// at the repository root; one anywhere else is written with its path.
	docRootFile = regexp.MustCompile("`([A-Za-z0-9][\\w.-]*\\.(?:json|txt|go))(?::\\d+)?`")
	goFunc      = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
)

// TestDocPathsResolve: every reference in the prose documents names
// something that exists — a path in the tree (a `dir.Symbol` reference is
// checked by its directory), a file at the root, or a test function
// declared in some _test.go file, bench/ included. A path followed by the
// planned marker is a promise, not a reference, and is skipped.
func TestDocPathsResolve(t *testing.T) {
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return fs.SkipDir // .git, build caches
		}
		if err != nil || !strings.HasSuffix(p, "_test.go") {
			return err
		}
		src, err := os.ReadFile(p)
		for _, m := range goFunc.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docFunc.FindAllSubmatch(text, -1) {
			if !funcs[string(m[1])] {
				t.Errorf("%s: `%s` is not a function in any _test.go file", doc, m[1])
			}
		}
		for _, m := range docRootFile.FindAllSubmatch(text, -1) {
			if _, err := os.Stat(string(m[1])); err != nil {
				t.Errorf("%s: `%s` is not a file at the repository root", doc, m[1])
			}
		}
		for _, m := range docPath.FindAllSubmatchIndex(text, -1) {
			ref := string(text[m[2]:m[3]])
			if strings.ContainsAny(ref, "*…<") || strings.Contains(ref, "...") {
				continue // a pattern, not a path
			}
			if bytes.HasPrefix(text[m[1]:], []byte(planned)) {
				continue
			}
			p := strings.TrimRight(ref, ".,;:)")
			if i := strings.IndexByte(p, ':'); i >= 0 {
				p = p[:i] // file.go:line
			}
			if _, err := os.Stat(p); err == nil {
				continue
			}
			dir, last := path.Split(p)
			if i := strings.IndexByte(last, '.'); i > 0 {
				if _, err := os.Stat(dir + last[:i]); err == nil {
					continue // dir.Symbol
				}
			}
			t.Errorf("%s: `%s` does not resolve in the tree", doc, ref)
		}
	}
}
