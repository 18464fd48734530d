package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

const (
	pumpRoundTrips = 200_000
	pumpWindow     = 16
	pumpPrime      = 1000
	pumpPort       = transport.PortHeartbeat
	// Every 8th packet is a full 64-member report, so the smallest and a
	// large packet are both on the path.
	pumpReportEvery   = 8
	pumpReportMembers = 64
	pumpLossTimeout   = time.Second
)

// pump drives two transport.Runtimes over real loopback sockets: A sends
// a window of heartbeats (and reports), B's handler decodes each and
// replies, A's handler decodes the reply and refills the window. Closed
// loop, one window of 16, two sockets.
type pump struct {
	rtA, rtB *transport.Runtime
	a, b     *transport.UDPEndpoint
	addrA    transport.Addr
	addrB    transport.Addr
	cap      *capture

	// Corpus: pre-built messages A sends, indexed by seq % len.
	report wire.Report

	// A-side state, touched only on A's event loop.
	total       int
	sent, done  int
	lost        int
	badReplies  int
	outstanding map[uint64]time.Time
	finished    chan struct{}
	hb          wire.Heartbeat
	ack         wire.ReportAck
	sweep       transport.Timer

	// B-side scratch, touched only on B's event loop.
	bHB  wire.Heartbeat
	bRep wire.Report

	// Traced only.
	rtts   []float64 // µs
	oneWay []float64 // µs, A's send call → B's handler entry
	sendNs float64
	sends  int
	stamps stampRing
}

func setupPump(seed int64, cap *capture) (instance, error) {
	p := &pump{cap: cap, outstanding: map[uint64]time.Time{}}
	p.rtA, p.rtB = transport.NewRuntime(), transport.NewRuntime()
	ipA, ipB := transport.MakeIP(127, 0, 0, 1), transport.MakeIP(127, 0, 0, 2)
	var err error
	if p.a, err = transport.NewUDPEndpoint(p.rtA, ipA); err != nil {
		return nil, err
	}
	if p.b, err = transport.NewUDPEndpoint(p.rtB, ipB); err != nil {
		return nil, err
	}
	p.addrA = transport.Addr{IP: ipA, Port: pumpPort}
	p.addrB = transport.Addr{IP: ipB, Port: pumpPort}
	p.a.Bind(pumpPort, p.onReply)
	p.b.Bind(pumpPort, p.onRequest)
	p.rtA.RunAsync()
	p.rtB.RunAsync()

	// The packet corpus: member order of the large report is the seed's.
	p.report = pumpReport(rand.New(rand.NewSource(seed)).Perm(pumpReportMembers))

	// Priming round trips: open both sockets' send paths, start the read
	// loops, and fill the codec pools. A failure here means the host has
	// no usable loopback, which no rep could survive either.
	if err := p.pumpFor(pumpPrime); err != nil {
		p.close()
		return nil, fmt.Errorf("priming: %w", err)
	}
	if p.lost > 0 || p.badReplies > 0 {
		p.close()
		return nil, fmt.Errorf("priming lost %d and garbled %d of %d round trips", p.lost, p.badReplies, pumpPrime)
	}
	return p, nil
}

// pumpReport is the corpus's large packet: a full report whose members
// come in the given order.
func pumpReport(order []int) wire.Report {
	r := wire.Report{Leader: transport.MakeIP(127, 0, 0, 1), Version: 1, Full: true, Segment: "idx-0"}
	for _, i := range order {
		r.Members = append(r.Members, wire.Member{
			IP: transport.MakeIP(10, 1, 0, byte(i+1)), Node: fmt.Sprintf("node-%03d", i), Admin: true})
	}
	return r
}

// pumpFor runs n round trips and waits for them to complete or be
// declared lost.
func (p *pump) pumpFor(n int) error {
	p.finished = make(chan struct{})
	p.rtA.Post(func() {
		p.total += n
		p.sweep = p.rtA.AfterFunc(pumpLossTimeout/4, p.sweepLost)
		p.refill()
	})
	stall := time.NewTimer(2 * time.Minute)
	defer stall.Stop()
	select {
	case <-p.finished:
		return nil
	case <-stall.C:
		return fmt.Errorf("pump stalled two minutes into %d round trips", n)
	}
}

// refill tops the window up and signals the harness once every round
// trip has been answered or declared lost. Runs on A's event loop.
func (p *pump) refill() {
	for len(p.outstanding) < pumpWindow && p.sent < p.total {
		p.sendNext()
	}
	if p.done+p.lost == p.total && p.sweep != nil {
		p.sweep.Stop()
		p.sweep = nil
		close(p.finished)
	}
}

// sendNext transmits the next request. Runs on A's event loop.
func (p *pump) sendNext() {
	p.sent++
	seq := uint64(p.sent)
	var pkt *wire.Packet
	if seq%pumpReportEvery == 0 {
		p.report.Seq = seq
		pkt = wire.NewPacket(&p.report)
	} else {
		p.hb = wire.Heartbeat{From: p.addrA.IP, Seq: seq, Version: 1, Leader: p.addrA.IP}
		pkt = wire.NewPacket(&p.hb)
	}
	now := time.Now()
	if p.cap != nil {
		p.stamps.put(seq, now)
	}
	err := p.a.Unicast(pumpPort, p.addrB, pkt.Bytes())
	if p.cap != nil {
		p.sendNs += float64(time.Since(now))
		p.sends++
	}
	pkt.Free()
	if err != nil {
		p.lost++
		return
	}
	p.outstanding[seq] = now
}

// sweepLost declares round trips unanswered for a second lost.
func (p *pump) sweepLost() {
	now := time.Now()
	for seq, at := range p.outstanding {
		if now.Sub(at) > pumpLossTimeout {
			delete(p.outstanding, seq)
			p.lost++
		}
	}
	if p.sweep != nil {
		p.sweep = p.rtA.AfterFunc(pumpLossTimeout/4, p.sweepLost)
		p.refill()
	}
}

// onRequest is B's handler: decode, reply in kind.
func (p *pump) onRequest(src, _ transport.Addr, payload []byte) {
	t, _ := wire.Peek(payload)
	var reply *wire.Packet
	switch t {
	case wire.THeartbeat:
		if wire.DecodeInto(payload, &p.bHB) != nil {
			return
		}
		if p.cap != nil {
			p.noteOneWay(p.bHB.Seq)
		}
		p.bHB.From = p.addrB.IP
		reply = wire.NewPacket(&p.bHB)
	case wire.TReport:
		if wire.DecodeInto(payload, &p.bRep) != nil || len(p.bRep.Members) != pumpReportMembers {
			return
		}
		reply = wire.NewPacket(&wire.ReportAck{From: p.addrB.IP, Seq: p.bRep.Seq})
	default:
		return
	}
	_ = p.b.Unicast(pumpPort, src, reply.Bytes())
	reply.Free()
}

// onReply is A's handler: decode the reply, check it echoes an
// outstanding sequence number, refill the window.
func (p *pump) onReply(_, _ transport.Addr, payload []byte) {
	t, _ := wire.Peek(payload)
	var seq uint64
	switch t {
	case wire.THeartbeat:
		if wire.DecodeInto(payload, &p.hb) != nil || p.hb.From != p.addrB.IP {
			p.badReplies++
			return
		}
		seq = p.hb.Seq
	case wire.TReportAck:
		if wire.DecodeInto(payload, &p.ack) != nil {
			p.badReplies++
			return
		}
		seq = p.ack.Seq
	default:
		p.badReplies++
		return
	}
	at, open := p.outstanding[seq]
	if !open {
		p.badReplies++ // an echo of nothing we are waiting for
		return
	}
	if p.cap != nil {
		p.rtts = append(p.rtts, float64(time.Since(at))/1e3)
	}
	delete(p.outstanding, seq)
	p.done++
	p.refill()
}

// stampRing hands A's send instants to B's loop for the one-way figure
// of traced runs. The two loops are different goroutines, hence the lock.
type stampRing struct {
	mu   sync.Mutex
	ring [pumpWindow * 4]struct {
		seq uint64
		at  time.Time
	}
}

func (r *stampRing) put(seq uint64, at time.Time) {
	r.mu.Lock()
	s := &r.ring[seq%uint64(len(r.ring))]
	s.seq, s.at = seq, at
	r.mu.Unlock()
}

func (r *stampRing) get(seq uint64) (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.ring[seq%uint64(len(r.ring))]
	return s.at, s.seq == seq
}

func (p *pump) noteOneWay(seq uint64) {
	if at, ok := p.stamps.get(seq); ok {
		p.oneWay = append(p.oneWay, float64(time.Since(at))/1e3)
	}
}

func (p *pump) run(sl *spanLog) error {
	id := sl.begin("transport round trips")
	err := p.pumpFor(pumpRoundTrips)
	sl.end(id, pumpRoundTrips)
	return err
}

func (p *pump) close() {
	p.a.Close()
	p.b.Close()
	p.rtA.Close()
	p.rtB.Close()
}

func (p *pump) check() outcome {
	// All A-side fields were last written before close(finished), which
	// the harness goroutine has since received from.
	done, lost := p.done-pumpPrime, p.lost
	out := outcome{
		ops:       float64(pumpRoundTrips),
		attempted: pumpRoundTrips,
		failed:    lost + p.badReplies,
		exact:     map[string]float64{},
		pins:      map[string]float64{"round_trips": float64(done + lost)},
		notes:     []string{"real UDP sockets on the loopback interface (127.0.0.1 ↔ 127.0.0.2); no real link was crossed"},
	}
	if lost > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d round trips unanswered after %v", lost, pumpLossTimeout))
	}
	if p.badReplies > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d replies failed to decode or echoed no outstanding sequence", p.badReplies))
	}
	if p.cap != nil {
		sort.Float64s(p.rtts)
		sort.Float64s(p.oneWay)
		out.counts = map[string]float64{
			"transport.lost":       float64(lost),
			"transport.rtt_us_p50": quantile(p.rtts, 0.50),
			"transport.rtt_us_p99": quantile(p.rtts, 0.99),
		}
		if p.sends > 0 {
			out.counts["transport.send_ns"] = p.sendNs / float64(p.sends)
		}
		if len(p.oneWay) > 0 {
			out.counts["transport.recv_to_handler_us_p50"] = quantile(p.oneWay, 0.50)
		}
	}
	return out
}
