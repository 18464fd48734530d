package metrics

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

func netTrace(port uint16, seg string, bytes, dropped int) netsim.Trace {
	return netsim.Trace{
		Dst:     transport.Addr{IP: transport.MakeIP(10, 0, 0, 1), Port: port},
		Segment: seg,
		Bytes:   bytes,
		Dropped: dropped,
	}
}

func TestRegistryAggregation(t *testing.T) {
	r := NewRegistry()
	r.Observe(netTrace(transport.PortHeartbeat, "vlan-100", 22, 0))
	r.Observe(netTrace(transport.PortHeartbeat, "vlan-100", 22, 1))
	r.Observe(netTrace(transport.PortBeacon, "vlan-200", 40, 0))

	if tot := r.Total(); tot.Messages != 3 || tot.Bytes != 84 || tot.Dropped != 1 {
		t.Fatalf("total = %+v", tot)
	}
	hb := r.PlaneCounter("heartbeat")
	if hb.Messages != 2 || hb.Bytes != 44 || hb.Dropped != 1 {
		t.Fatalf("heartbeat = %+v", hb)
	}
	if r.PlaneCounter("snmp").Messages != 0 {
		t.Fatal("unseen plane should be zero")
	}
	if seg := r.bySegment["vlan-100"]; seg.Messages != 2 {
		t.Fatalf("segment = %+v", seg)
	}
}

func TestPlaneNames(t *testing.T) {
	cases := map[uint16]string{
		transport.PortBeacon:    "beacon",
		transport.PortMember:    "membership",
		transport.PortHeartbeat: "heartbeat",
		transport.PortReport:    "report",
		transport.PortSNMP:      "snmp",
		9999:                    "other",
	}
	for port, want := range cases {
		if got := Plane(port); got != want {
			t.Errorf("Plane(%d) = %q, want %q", port, got, want)
		}
	}
}

func TestResetAndRate(t *testing.T) {
	r := NewRegistry()
	r.Observe(netTrace(transport.PortHeartbeat, "s", 22, 0))
	r.Reset(10 * time.Second)
	if r.Total().Messages != 0 {
		t.Fatal("Reset did not clear")
	}
	r.Observe(netTrace(transport.PortHeartbeat, "s", 22, 0))
	r.Observe(netTrace(transport.PortHeartbeat, "s", 22, 0))
	got := r.Rate(r.Total().Messages, 14*time.Second)
	if got != 0.5 {
		t.Fatalf("rate = %v, want 0.5 msg/s", got)
	}
	if r.Rate(5, 10*time.Second) != 0 {
		t.Fatal("zero window rate must be 0")
	}
}

func TestSummary(t *testing.T) {
	r := NewRegistry()
	r.Observe(netTrace(transport.PortBeacon, "s", 40, 0))
	r.Observe(netTrace(transport.PortReport, "s", 60, 2))
	s := r.Summary()
	if !strings.Contains(s, "beacon") || !strings.Contains(s, "report") {
		t.Fatalf("summary = %q", s)
	}
	if strings.Index(s, "beacon") > strings.Index(s, "report") {
		t.Fatal("summary not in name order")
	}
}

func TestLatencies(t *testing.T) {
	var l Latencies
	if l.Quantile(0.5) != 0 || l.Mean() != 0 || l.Max() != 0 || l.Min() != 0 {
		t.Fatal("empty latencies must report zeros")
	}
	for _, ms := range []int{50, 10, 30, 20, 40} {
		l.Add(time.Duration(ms) * time.Millisecond)
	}
	if l.N() != 5 {
		t.Fatal("N wrong")
	}
	if l.Min() != 10*time.Millisecond || l.Max() != 50*time.Millisecond {
		t.Fatalf("min/max = %v/%v", l.Min(), l.Max())
	}
	if l.Quantile(0.5) != 30*time.Millisecond {
		t.Fatalf("median = %v", l.Quantile(0.5))
	}
	if l.Mean() != 30*time.Millisecond {
		t.Fatalf("mean = %v", l.Mean())
	}
	if l.Quantile(0) != 10*time.Millisecond || l.Quantile(1) != 50*time.Millisecond {
		t.Fatal("extreme quantiles wrong")
	}
	// Adding after sorting must still work.
	l.Add(time.Millisecond)
	if l.Min() != time.Millisecond {
		t.Fatal("Add after sort broke ordering")
	}
}

// Min returns the smallest sample.
func (l *Latencies) Min() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.sortSamples()
	return l.samples[0]
}
