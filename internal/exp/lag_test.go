package exp

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestLagQuickSanity runs the PR-gate E18 variant end to end: every
// trial must stitch a complete, closed, gap-free primary span and the
// failure cells' span arithmetic must reconcile with the serving
// plane's measured error-seconds.
func TestLagQuickSanity(t *testing.T) {
	_, bad, err := lag.run(Args{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d sanity failures", bad)
	}
}

// TestLagDeterministic asserts the acceptance property directly: the
// same cell and seed give identical trials on every run.
func TestLagDeterministic(t *testing.T) {
	c := lag.cells[0]
	for _, seed := range lag.seeds[:lag.quickSeeds] {
		if a, b := trialOf(t, lag, c, seed), trialOf(t, lag, c, seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: same-seed trials differ:\n%+v\n---\n%+v", seed, a, b)
		}
	}
}

// TestLagPromSurface runs one seeded E18 trial and checks the Prometheus
// rendering of the notification-lag and per-stage span histograms: the
// series exist and their quantiles are monotone.
func TestLagPromSurface(t *testing.T) {
	var m lagTrial
	p := lagPlan(lag.cells[0], 171, &m)
	var reg *metrics.Registry
	stitch := p.end
	p.end = func(tr *trial) error {
		reg = tr.Metrics
		return stitch(tr)
	}
	if err := p.run(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	reg.WriteProm(&sb)
	text := sb.String()
	for _, name := range []string{
		"serve_notify_lag", "span_stage_suspicion", "span_stage_2pc_prepare",
		"span_stage_notify", "span_stage_reroute", "span_total",
	} {
		if !strings.Contains(text, "gulfstream_"+name+"_seconds{quantile=\"0.5\"}") {
			t.Fatalf("prometheus text missing %s quantile series:\n%s", name, text)
		}
		h := reg.Histogram(name)
		if h.N == 0 {
			t.Fatalf("%s has no observations", name)
		}
		if h.P50 > h.P95 || h.P95 > h.Max {
			t.Fatalf("%s quantiles not monotone: p50=%v p95=%v max=%v", name, h.P50, h.P95, h.Max)
		}
	}
}
