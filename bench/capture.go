package main

import (
	"sync"
	"sync/atomic"

	"repro/internal/configdb"
	"repro/internal/farm"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// sampleCap bounds how many packets or records a traced rep retains for
// the probes. When the buffer fills, every other sample is dropped and
// the sampling stride doubles, so the kept set stays spread evenly over
// the whole cell whatever its length.
const sampleCap = 8192

// packetSample is one captured transmission.
type packetSample struct {
	payload   []byte
	port      uint16
	multicast bool
	receivers int
}

// capture is what a traced rep's taps and sinks record: totals for the
// per-layer counts, and evenly-strided samples of the actual packets and
// trace records as inputs for the layer probes. The sharded kernel calls
// the tap from several goroutines, so totals are atomic and the sample
// buffer is locked.
type capture struct {
	mcastMsgs, ucastMsgs       atomic.Uint64
	mcastDeliveries, ucastDels atomic.Uint64
	bytes, dropped             atomic.Uint64
	beaconDeliveries           atomic.Uint64
	heartbeatMsgs              atomic.Uint64

	mu      sync.Mutex
	packets sampler[packetSample]

	kinds    [256]uint64
	records  sampler[trace.Record]
	twoPCHit bool // set by the sink on any 2PC-kind record; the step probe clears it

	pendingPeak int
	windows     uint64

	// Handed from the last traced rep to the probes that need live
	// context: the finished farm, the span collector's records and the
	// simulated time the cell covered.
	farm        *farm.Farm
	spanRecords []trace.Record
	simSeconds  float64
	stormDB     *configdb.DB
	stormGroups map[transport.IP][]transport.IP
	cellNs      float64 // wall time inside the layer's own calls
}

func newCapture() *capture { return &capture{} }

// sampler keeps an evenly-strided sample of at most sampleCap items from
// a stream of unknown length.
type sampler[T any] struct {
	seen, stride uint64
	kept         []T
}

// offer presents the stream's next item; make is called only if the
// item is kept (so a packet is copied only then).
func (s *sampler[T]) offer(make func() T) {
	if s.stride == 0 {
		s.stride = 1
	}
	if s.seen%s.stride == 0 && len(s.kept) == sampleCap {
		s.kept = halve(s.kept)
		s.stride *= 2
	}
	if s.seen%s.stride == 0 {
		s.kept = append(s.kept, make())
	}
	s.seen++
}

// tap returns a netsim tap that records into c and then forwards to
// next (the farm's own metrics tap; netsim has a single tap slot).
func (c *capture) tap(next func(netsim.Trace)) func(netsim.Trace) {
	return func(tr netsim.Trace) {
		if tr.Multicast {
			c.mcastMsgs.Add(1)
			c.mcastDeliveries.Add(uint64(tr.Receivers))
		} else {
			c.ucastMsgs.Add(1)
			c.ucastDels.Add(uint64(tr.Receivers))
		}
		c.bytes.Add(uint64(tr.Bytes))
		c.dropped.Add(uint64(tr.Dropped))
		switch tr.Dst.Port {
		case transport.PortBeacon:
			c.beaconDeliveries.Add(uint64(tr.Receivers))
		case transport.PortHeartbeat:
			c.heartbeatMsgs.Add(1)
		}
		c.mu.Lock()
		c.packets.offer(func() packetSample {
			return packetSample{
				payload:   append([]byte(nil), tr.Payload...),
				port:      tr.Dst.Port,
				multicast: tr.Multicast,
				receivers: tr.Receivers,
			}
		})
		c.mu.Unlock()
		if next != nil {
			next(tr)
		}
	}
}

// attachNet installs the capture tap on net, chaining to reg's Observe
// when reg already owns the tap slot.
func (c *capture) attachNet(net *netsim.Network, reg *metrics.Registry) {
	var next func(netsim.Trace)
	if reg != nil {
		next = reg.Observe
	}
	net.Tap(c.tap(next))
}

// sink is a flight-recorder sink: it counts every record by kind and
// keeps a strided sample.
func (c *capture) sink(r trace.Record) {
	c.kinds[r.Kind]++
	switch r.Kind {
	case trace.KPrepareSent, trace.KPrepareRecv, trace.KPrepareAck, trace.KCommitSent,
		trace.KCommitRecv, trace.KAbortRecv, trace.KRetarget, trace.KViewCommit:
		c.twoPCHit = true
	}
	c.records.offer(func() trace.Record { return r })
}

// halve keeps every other element, in place.
func halve[T any](s []T) []T {
	n := 0
	for i := 0; i < len(s); i += 2 {
		s[n] = s[i]
		n++
	}
	return s[:n]
}

func (c *capture) deliveries() uint64 { return c.mcastDeliveries.Load() + c.ucastDels.Load() }
