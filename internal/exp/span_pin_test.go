package exp

import (
	"encoding/json"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/farm"
	"repro/internal/serve"
	"repro/internal/span"
)

// TestStitchPinned stitches and audits one long chaos chronology, set up
// as chaosRun sets it up, and pins what comes out: the record count, the
// span count, and an FNV-64a over the spans' JSON followed by every audit
// finding. A change to how the stitcher finds its milestones must leave
// all three where they are.
func TestStitchPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("a 400-round chaos schedule")
	}
	const (
		seed        = 7
		wantRecords = 64_237
		wantSpans   = 320
		wantHash    = 0xffd5e326c3f82201
	)
	f, err := farm.Build(chaosSpec(seed, false))
	if err != nil {
		t.Fatal(err)
	}
	coll := span.NewCollector(nil)
	coll.Attach("farm", f.Trace)
	f.Start()
	if _, ok := f.RunUntilStable(2 * time.Minute); !ok {
		t.Fatal("initial stabilization failed")
	}
	plane := f.AttachServe(serve.Config{Seed: seed, SessionsPerSec: 50}, nil)
	plane.Start()
	check.Generate(seed, f.CheckTopology(), check.GenOpts{Rounds: 400}).Run(f)
	plane.Stop()

	recs := coll.Records()
	spans := span.Stitch(recs, f)
	js, err := json.Marshal(spans)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(js)
	findings := span.Audit(recs, f)
	for _, line := range findings {
		h.Write([]byte("\n" + line))
	}
	t.Logf("records %d, spans %d, findings %d, hash %#x", len(recs), len(spans), len(findings), h.Sum64())
	if len(recs) != wantRecords {
		t.Errorf("records = %d, want %d", len(recs), wantRecords)
	}
	if len(spans) != wantSpans {
		t.Errorf("spans = %d, want %d", len(spans), wantSpans)
	}
	if got := h.Sum64(); got != wantHash {
		t.Errorf("spans+findings hash = %#x, want %#x", got, uint64(wantHash))
	}
}
