package exp

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/evaluation.golden from this run")

// TestEvaluationGolden is the evaluation's ledger: every row of
// Experiments rendered — at full size, Slow rows at their quick size, the
// chaos sweep over seeds 1-64 without shrinking — and compared byte for
// byte with the committed file. A table holds nothing host-dependent, so
// any difference is a change in what the system does: a PR that means one
// re-runs with -update and shows the diff; no other code writes the file.
// The bytes are what is asserted, not that a column reads zero — the chaos
// rows with violations are recorded as they are (ROADMAP's first item).
func TestEvaluationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation, several seconds")
	}
	var got bytes.Buffer
	for _, e := range Experiments {
		tab, _, err := e.Run(Args{Quick: e.Slow, Chaos: ChaosOptions{From: 1, Seeds: 64, Rounds: 25}})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		tab.Fprint(&got)
	}
	const path = "testdata/evaluation.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	header := []byte("(before the first table)")
	for i := 0; i < len(g) && i < len(w); i++ {
		if bytes.HasPrefix(g[i], []byte("== ")) {
			header = g[i]
		}
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s line %d, under %s\n got: %s\nwant: %s\n(-update rewrites the file; the diff belongs in the PR)",
				path, i+1, header, g[i], w[i])
		}
	}
	t.Fatalf("%s: %d lines rendered, %d committed", path, len(g), len(w))
}
