package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
)

// TestConcurrentObserveSummary exercises the registry from many
// goroutines under -race: traffic taps, instruments, and readers at
// once — the shape gsd produces (UDP event loop writing, HTTP debug
// handlers reading).
func TestConcurrentObserveSummary(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				r.Observe(netTrace(transport.PortHeartbeat, fmt.Sprintf("vlan-%d", g), 22, i%2))
				r.Inc("suspicions_total")
				r.Set("group_size", float64(i))
				r.ObserveDuration("twopc_round", time.Duration(i)*time.Microsecond)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = r.Summary()
			_ = r.Total()
			_ = r.Counters()
			_ = r.Histogram("twopc_round")
			r.WriteProm(&strings.Builder{})
		}
	}()
	wg.Wait()
	if got := r.Total().Messages; got != 1200 {
		t.Errorf("total messages = %d, want 1200", got)
	}
	if got := r.CounterValue("suspicions_total"); got != 1200 {
		t.Errorf("suspicions_total = %d, want 1200", got)
	}
	if got := r.Histogram("twopc_round").N; got != 1200 {
		t.Errorf("histogram N = %d, want 1200", got)
	}
}

// TestQuantileNearestRank pins the nearest-rank-with-rounding rule on
// small sample counts, where the old truncating index biased low (a
// 3-sample p95 used to return the median).
func TestQuantileNearestRank(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	cases := []struct {
		name    string
		samples []int
		q       float64
		want    time.Duration
	}{
		{"single sample any q", []int{7}, 0.95, ms(7)},
		{"two samples median rounds up", []int{10, 20}, 0.5, ms(20)},
		{"two samples p25 rounds down", []int{10, 20}, 0.25, ms(10)},
		{"three samples p95 is max", []int{10, 20, 30}, 0.95, ms(30)},
		{"three samples p75 rounds to max", []int{10, 20, 30}, 0.75, ms(30)},
		{"three samples p70 rounds to median", []int{10, 20, 30}, 0.70, ms(20)},
		{"five samples median exact", []int{10, 20, 30, 40, 50}, 0.5, ms(30)},
		{"five samples p90 rounds to max", []int{10, 20, 30, 40, 50}, 0.9, ms(50)},
		{"five samples p85 rounds to 4th", []int{10, 20, 30, 40, 50}, 0.85, ms(40)},
		{"q=0 is min", []int{30, 10, 20}, 0, ms(10)},
		{"q=1 is max", []int{30, 10, 20}, 1, ms(30)},
		{"q above 1 clamps", []int{10, 20}, 1.5, ms(20)},
		{"q below 0 clamps", []int{10, 20}, -0.5, ms(10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var l Latencies
			for _, v := range tc.samples {
				l.Add(ms(v))
			}
			if got := l.Quantile(tc.q); got != tc.want {
				t.Errorf("Quantile(%v) over %v = %v, want %v", tc.q, tc.samples, got, tc.want)
			}
		})
	}
}

func TestPlaneJournalPort(t *testing.T) {
	if got := Plane(transport.PortJournal); got != "journal" {
		t.Errorf("Plane(PortJournal) = %q, want journal", got)
	}
}

// TestSummaryFormat pins the exact row layout experiment tables rely on.
func TestSummaryFormat(t *testing.T) {
	r := NewRegistry()
	r.Observe(netTrace(transport.PortBeacon, "s", 40, 1))
	want := "beacon              1 msgs         40 bytes      1 dropped\n"
	if got := r.Summary(); got != want {
		t.Errorf("Summary() = %q, want %q", got, want)
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Observe(netTrace(transport.PortBeacon, "vlan-1", 40, 0))
	r.Add("suspicions_total", 3)
	r.Set("group_size{leader=\"10.1.0.5\"}", 4)
	r.ObserveDuration("twopc_round", 10*time.Millisecond)
	r.ObserveDuration("twopc_round", 30*time.Millisecond)
	var b strings.Builder
	r.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		`gulfstream_plane_messages_total{plane="beacon"} 1`,
		`gulfstream_plane_bytes_total{plane="beacon"} 40`,
		`gulfstream_segment_messages_total{segment="vlan-1"} 1`,
		`gulfstream_suspicions_total 3`,
		`gulfstream_group_size{leader="10.1.0.5"} 4`,
		`gulfstream_twopc_round_seconds{quantile="0.5"} 0.03`,
		`gulfstream_twopc_round_seconds_count 2`,
		`gulfstream_twopc_round_seconds_sum 0.04`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

// TestObserveTraceBridge drives the flight-recorder sink and checks the
// derived instruments, including the 2PC round latency correlation.
func TestObserveTraceBridge(t *testing.T) {
	r := NewRegistry()
	sink := ObserveTrace(r)
	leader := transport.MakeIP(10, 1, 0, 9)
	recs := []trace.Record{
		{Kind: trace.KBeaconSent, T: 0},
		{Kind: trace.KPrepareSent, Group: leader, Token: 7, T: 1 * time.Second},
		{Kind: trace.KPrepareSent, Group: leader, Token: 7, T: 1100 * time.Millisecond}, // resend: not a new round
		{Kind: trace.KCommitSent, Group: leader, Token: 7, T: 1250 * time.Millisecond},
		{Kind: trace.KViewCommit, Self: leader, Group: leader, Version: 2, Count: 5},
		{Kind: trace.KViewCommit, Self: leader + 1, Group: leader, Version: 2, Count: 5}, // member copy: no gauge
		{Kind: trace.KSuspicionRaised, Peer: leader},
		{Kind: trace.KFalseAccusation, Peer: leader},
		{Kind: trace.KLeaderTakeover},
		{Kind: trace.KCentralActivated},
		{Kind: trace.KRxDropped, Self: leader, Detail: "beacon short"},
		{Kind: trace.KRxDropped, Self: leader, Detail: "beacon short"},
		{Kind: trace.KRxDropped, Self: leader, Detail: "report bad-type"},
	}
	for _, rec := range recs {
		sink(rec)
	}
	for name, want := range map[string]uint64{
		"beacons_sent_total":                                 1,
		"twopc_rounds_total":                                 1,
		"twopc_commits_total":                                1,
		"view_commits_total":                                 2,
		"suspicions_total":                                   1,
		"false_accusations_total":                            1,
		"leader_takeovers_total":                             1,
		"central_activations_total":                          1,
		`rx_dropped_total{plane="beacon",reason="short"}`:    2,
		`rx_dropped_total{plane="report",reason="bad-type"}`: 1,
	} {
		if got := r.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	h := r.Histogram("twopc_round")
	if h.N != 1 || h.Max != 250*time.Millisecond {
		t.Errorf("twopc_round = %+v, want one 250ms sample", h)
	}
	if got := r.Gauges()[`group_size{leader="10.1.0.9"}`]; got != 5 {
		t.Errorf("group_size gauge = %v, want 5", got)
	}
	var b strings.Builder
	r.WriteProm(&b)
	if want := `gulfstream_rx_dropped_total{plane="beacon",reason="short"} 2`; !strings.Contains(b.String(), want) {
		t.Errorf("prom output missing %q", want)
	}
}

// TestObserveTraceEvictsOldestRound: past 4 096 open 2PC rounds the sink
// drops one per new round, and which one must not depend on map order.
// 4 200 rounds open a millisecond apart and all commit at once; every run
// must drop the 103 oldest, so the histogram comes out the same each time.
func TestObserveTraceEvictsOldestRound(t *testing.T) {
	const rounds = 4200
	end := time.Hour
	var first HistogramStats
	for run := 0; run < 20; run++ {
		r := NewRegistry()
		sink := ObserveTrace(r)
		leader := transport.MakeIP(10, 1, 0, 9)
		for i := 0; i < rounds; i++ {
			sink(trace.Record{Kind: trace.KPrepareSent, Group: leader, Token: uint64(i), T: time.Duration(i) * time.Millisecond})
		}
		for i := 0; i < rounds; i++ {
			sink(trace.Record{Kind: trace.KCommitSent, Group: leader, Token: uint64(i), T: end})
		}
		h := r.Histogram("twopc_round")
		if run == 0 {
			first = h
			if h.N != 4097 || h.Max != end-103*time.Millisecond {
				t.Fatalf("twopc_round = %+v, want 4097 samples, the oldest 103 rounds dropped", h)
			}
		} else if h != first {
			t.Fatalf("run %d: twopc_round = %+v, run 0 gave %+v", run, h, first)
		}
	}
}
