// Package exampletest runs an example program's main inside its test and
// hands back what it printed, so a test can check the closing outcome.
package exampletest

import (
	"io"
	"os"
	"strings"
	"testing"
)

// Run calls main twice with standard output captured and returns the
// printed lines. An example is a seeded simulation with no flags and no
// wall clock, so the two runs must print the same; one that does not has
// let a map's order (or some other chance) into its output, and the test
// fails at the first differing line. An example that fails exits through
// log.Fatal, which fails the test binary.
func Run(t testing.TB, main func()) []string {
	t.Helper()
	first := strings.Split(capture(t, main), "\n")
	second := strings.Split(capture(t, main), "\n")
	for i := range max(len(first), len(second)) {
		if i >= len(first) || i >= len(second) || first[i] != second[i] {
			t.Fatalf("a second run printed differently from line %d:\n  first:  %q\n  second: %q",
				i+1, line(first, i), line(second, i))
		}
	}
	return first
}

// capture runs main with standard output redirected and returns what it
// printed, without the trailing newlines.
func capture(t testing.TB, main func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		r.Close()
		printed <- string(b)
	}()
	main()
	os.Stdout = stdout
	w.Close()
	return strings.TrimRight(<-printed, "\n")
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of output)"
}
