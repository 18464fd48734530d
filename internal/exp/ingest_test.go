package exp

import (
	"slices"
	"testing"
	"time"
)

// The 8 192-adapter point of E19 is the cell of bench's central_storm
// workload, built here from the same corpus rules: 1 184 reports give 913
// notifications (40 NodeFailed, 40 NodeRecovered), 768 delivered resync
// requests and journal position 9 104 — at any seed.
func TestIngestStormShapeGolden(t *testing.T) {
	want := ingestCounts{Reports: 1184, Notifications: 913, NodeFailed: 40, NodeRecovered: 40,
		Resyncs: 768, JournalSeq: 9104, Snapshots: 4}
	for _, seed := range []int64{99, 7} {
		r, err := ingestPoint(8192, seed)
		if err != nil {
			t.Fatal(err)
		}
		if r.ingestCounts != want {
			t.Errorf("seed %d: counts %+v, want %+v", seed, r.ingestCounts, want)
		}
	}
	tab, err := ingest([]int{8192})
	if err != nil {
		t.Fatal(err)
	}
	row := []string{"8192", "1184", "913", "40/40", "768", "9104", "4"}
	if len(tab.Rows) != 1 || !slices.Equal(tab.Rows[0], row) {
		t.Errorf("table rows %v, want [%v]", tab.Rows, row)
	}
}

func TestIngestRejectsSizesTheCorpusCannotBuild(t *testing.T) {
	for _, adapters := range []int{0, 100, 8200, 1 << 18} {
		if _, err := ingestPoint(adapters, 1); err == nil {
			t.Errorf("%d adapters accepted", adapters)
		}
	}
}

// Central's ingest is linear in farm size: four times the adapters may
// cost at most eight times the time (linear is 4x; with a scan of every
// adapter per joined member it was about 30x), and a 32 k-adapter farm
// ingests in under a second. Each size is timed three times and the
// fastest kept, since all a shared host ever adds is time.
func TestIngestIsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("times a 32k-adapter ingest")
	}
	best := func(adapters int) time.Duration {
		var fastest time.Duration
		for i := 0; i < 3; i++ {
			r, err := ingestPoint(adapters, 99)
			if err != nil {
				t.Fatal(err)
			}
			if d := r.total(); fastest == 0 || d < fastest {
				fastest = d
			}
		}
		return fastest
	}
	small, large := best(8192), best(32768)
	t.Logf("8k adapters %v, 32k adapters %v (%.1fx)", small, large, large.Seconds()/small.Seconds())
	if large > 8*small {
		t.Errorf("32k adapters took %v, more than 8x the %v of 8k", large, small)
	}
	if large > time.Second {
		t.Errorf("32k adapters took %v, want under 1s", large)
	}
}
