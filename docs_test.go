package gulfstream

import (
	"os"
	"path"
	"regexp"
	"strings"
	"testing"
)

// docPath matches a backticked reference into the tree: `cmd/gsctl`,
// `internal/farm/farm.go:42`, `internal/check.ParseOp`, `cmd/gsbench
// chaos` (only the path part is captured).
var docPath = regexp.MustCompile("`((?:cmd|internal|examples|scripts)/[^`\\s]*)[`\\s]")

// TestDocPathsResolve: every such reference in the prose documents names
// something that exists. A `dir.Symbol` reference is checked by its
// directory.
func TestDocPathsResolve(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docPath.FindAllStringSubmatch(string(text), -1) {
			ref := m[1]
			if strings.ContainsAny(ref, "*…<") || strings.Contains(ref, "...") {
				continue // a pattern, not a path
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
