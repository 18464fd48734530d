// Package exampletest runs an example program's main inside its test and
// hands back what it printed, so a test can check the closing outcome.
package exampletest

import (
	"io"
	"os"
	"strings"
	"testing"
)

// Run calls main with standard output captured and returns the printed
// lines. An example that fails exits through log.Fatal, which fails the
// test binary.
func Run(t testing.TB, main func()) []string {
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
	return strings.Split(strings.TrimRight(<-printed, "\n"), "\n")
}
