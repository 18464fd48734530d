package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/amg"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// CentralHook is how a daemon hands control to a GulfStream Central
// implementation when its administrative adapter wins (or loses) the
// leadership of the administrative AMG. internal/central implements it.
type CentralHook interface {
	// Activate is called when this daemon becomes GulfStream Central,
	// with the administrative endpoint to serve from.
	Activate(admin transport.Endpoint)
	// Deactivate is called when leadership is lost.
	Deactivate()
	// HandleReport delivers one membership report (network or local).
	// src is the reporting daemon's administrative adapter address.
	HandleReport(src transport.Addr, r *wire.Report)
}

// JournalPeer is an optional extension of CentralHook for Centrals that
// replicate a state journal. The daemon routes journal-plane traffic
// (JournalAppend from the active, JournalAck from the standby) here,
// passing its administrative endpoint so an inactive standby — which was
// never Activated and has no endpoint of its own — can still reply.
type JournalPeer interface {
	HandleJournal(ep transport.Endpoint, src transport.Addr, msg wire.Message)
}

// Daemon is the per-node GulfStream agent.
//
// Concurrency: a Daemon is event-driven and NOT safe for concurrent use.
// Whatever drives it — the deterministic simulator, or the UDP runtime's
// single event goroutine — must serialize all handler and timer callbacks.
type Daemon struct {
	cfg         Config
	node        string
	clock       transport.Clock
	rng         *rand.Rand
	incarnation uint32

	adapters []*adapterProto // in adapter-index order
	byIP     map[transport.IP]*adapterProto

	reporter *reporter
	central  CentralHook
	tracer   *trace.Recorder

	// centralIP is the current administrative AMG leader (0 if unknown).
	centralIP transport.IP
	hosting   bool

	nextToken uint64
	running   bool
}

// NewDaemon builds a daemon for a node owning the given endpoints, in
// index order (endpoint cfg.AdminIndex is the administrative adapter).
// The daemon is inert until Start.
func NewDaemon(cfg Config, node string, clock transport.Clock, rng *rand.Rand, endpoints []transport.Endpoint) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("core: node %s has no adapters", node)
	}
	if int(cfg.AdminIndex) >= len(endpoints) {
		return nil, fmt.Errorf("core: AdminIndex %d out of range", cfg.AdminIndex)
	}
	d := &Daemon{
		cfg:   cfg,
		node:  node,
		clock: clock,
		rng:   rng,
		byIP:  make(map[transport.IP]*adapterProto),
	}
	for i, ep := range endpoints {
		p := newAdapterProto(d, ep, uint8(i))
		d.adapters = append(d.adapters, p)
		d.byIP[ep.LocalIP()] = p
	}
	d.reporter = newReporter(d)
	return d, nil
}

// SetCentral installs the Central implementation this daemon hosts when
// elected. Must be called before Start.
func (d *Daemon) SetCentral(c CentralHook) { d.central = c }

// Clock exposes the daemon's time source.
func (d *Daemon) Clock() transport.Clock { return d.clock }

// AdminIP returns the administrative adapter's address.
func (d *Daemon) AdminIP() transport.IP {
	return d.adapters[d.cfg.AdminIndex].self
}

// Start boots (or reboots after Crash) every adapter: handlers are bound
// and the beacon phase begins. Each restart bumps the incarnation.
func (d *Daemon) Start() {
	if d.running {
		return
	}
	d.running = true
	d.incarnation++
	d.centralIP = 0
	for _, p := range d.adapters {
		p.start()
	}
}

// Crash halts the daemon abruptly: all timers stop, all protocol state is
// dropped, handlers go deaf. The farm uses it for node-failure injection;
// Start revives the daemon with a fresh incarnation.
func (d *Daemon) Crash() {
	if !d.running {
		return
	}
	d.running = false
	for _, p := range d.adapters {
		p.shutdown()
	}
	d.reporter.reset()
	if d.hosting {
		d.hosting = false
		if d.central != nil {
			d.central.Deactivate()
		}
	}
}

// Running reports whether the daemon is live.
func (d *Daemon) Running() bool {
	return d.running
}

// View returns the committed membership of the adapter with address ip.
func (d *Daemon) View(ip transport.IP) (amg.Membership, bool) {
	p, ok := d.byIP[ip]
	if !ok {
		return amg.Membership{}, false
	}
	return p.view, p.state == stMember || p.state == stLeader
}

// Leading lists the adapters of this daemon currently leading an AMG.
func (d *Daemon) Leading() []transport.IP {
	var out []transport.IP
	for _, p := range d.adapters {
		if p.state == stLeader {
			out = append(out, p.self)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HostingCentral reports whether this daemon is GulfStream Central.
func (d *Daemon) HostingCentral() bool {
	return d.hosting
}

// DisableAdapter administratively disables one of this daemon's adapters
// (Central's conflict response). The adapter goes silent; its group will
// declare it dead.
func (d *Daemon) DisableAdapter(ip transport.IP) bool {
	p, ok := d.byIP[ip]
	if !ok {
		return false
	}
	p.disable()
	return true
}

// admin returns the administrative adapter's protocol state.
func (d *Daemon) admin() *adapterProto { return d.adapters[d.cfg.AdminIndex] }

// token issues a fresh 2PC token.
func (d *Daemon) token() uint64 {
	d.nextToken++
	return d.nextToken
}

// adminViewChanged reacts to commits on the administrative adapter: it
// tracks where Central lives and activates/deactivates a hosted Central.
func (d *Daemon) adminViewChanged() {
	adminProto := d.admin()
	newCentral := adminProto.view.Leader()
	if adminProto.state != stMember && adminProto.state != stLeader {
		newCentral = 0
	}
	if newCentral == d.centralIP {
		return
	}
	d.centralIP = newCentral
	shouldHost := newCentral == adminProto.self
	if shouldHost != d.hosting {
		d.hosting = shouldHost
		if d.central != nil {
			if shouldHost {
				d.central.Activate(adminProto.ep)
			} else {
				d.central.Deactivate()
			}
		}
	}
	// A new Central has no baseline: every group this daemon leads must
	// resend a full report.
	d.reporter.centralChanged()
}

// handleReportPlane routes PortReport traffic arriving on the admin
// adapter: reports go to a hosted Central, acks to the reporter.
func (d *Daemon) handleReportPlane(src, _ transport.Addr, payload []byte) {
	if !d.running {
		return
	}
	msg, err := wire.Decode(payload)
	if err != nil {
		d.rxDropped(d.admin().self, "report", err)
		return
	}
	switch m := msg.(type) {
	case *wire.Report:
		if d.hosting && d.central != nil {
			d.central.HandleReport(src, m)
		}
	case *wire.ReportAck:
		d.reporter.onAck(m.Seq)
	case *wire.ResyncRequest:
		// Central lost (or never had) its state: resend full reports for
		// every group we lead. Only honor the Central we believe in.
		if m.From == d.centralIP && d.centralIP != 0 {
			d.reporter.centralChanged()
		}
	}
}

// handleJournalPlane routes PortJournal traffic arriving on the admin
// adapter to a journal-capable Central (active or standing by).
func (d *Daemon) handleJournalPlane(src, _ transport.Addr, payload []byte) {
	if !d.running || d.central == nil {
		return
	}
	jp, ok := d.central.(JournalPeer)
	if !ok {
		return
	}
	msg, err := wire.Decode(payload)
	if err != nil {
		d.rxDropped(d.admin().self, "journal", err)
		return
	}
	switch msg.(type) {
	case *wire.JournalAppend, *wire.JournalAck:
		jp.HandleJournal(d.admin().ep, src, msg)
	}
}
