package gulfstream

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds compiles the benchmark. bench/ is its own module
// (repro/bench, replace repro => ../), so `go build ./... && go test
// ./...` at the root never sees it, while it imports some twenty internal
// packages: an exported name it uses, renamed here, would otherwise first
// fail in the benchmark run. Only the build cache is written.
func TestBenchModuleBuilds(t *testing.T) {
	for _, args := range [][]string{
		{"vet", "./..."},
		{"build", "-o", os.DevNull, "."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "bench"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in bench/: %v\n%s", args, err, out)
		}
	}
}
