package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The heard set against the structure it replaced in spirit: a map from
// address to what the peer's last differing beacon said.

type heardRef struct {
	inc            uint32 // low 30 bits
	grouped, admin bool
	node           string
}

type heardModel map[transport.IP]heardRef

// put applies one beacon and reports whether it said anything new — the
// rule the heard table has always had: the node name is written with the
// fingerprint and only with it.
func (m heardModel) put(ip transport.IP, inc uint32, grouped, admin bool, node string) bool {
	want := heardRef{inc & heardIncMask, grouped, admin, ""}
	got, ok := m[ip]
	want.node = got.node
	if ok && got == want {
		return false
	}
	want.node = node
	m[ip] = want
	return true
}

func (m heardModel) ungrouped() []wire.Member {
	var ms []wire.Member
	for ip, r := range m {
		if !r.grouped {
			ms = append(ms, wire.Member{IP: ip, Node: r.node, Admin: r.admin})
		}
	}
	slices.SortFunc(ms, func(a, b wire.Member) int { return int(int64(b.IP) - int64(a.IP)) })
	return ms
}

// heardPeers is an address population with every awkward corner: a dense
// farm-style run crossing /24 boundaries, both ends of the address space,
// and peers a /8 apart.
func heardPeers() []transport.IP {
	ips := []transport.IP{0, 1, 63, 64, 0xffffffff, 0xffffffc0, 0xffffffbf}
	for i := 0; i < 450; i++ {
		ips = append(ips, transport.MakeIP(10, 1, byte(i/200), byte(i%200+1)))
	}
	for a := 11; a < 40; a++ {
		ips = append(ips, transport.MakeIP(byte(a), 0, 0, 5))
	}
	return ips
}

// beaconStream draws the next beacon: mostly repeats of what the peer said
// last, sometimes a flipped flag, sometimes a restart under a new
// incarnation (now and then renamed), sometimes an incarnation that differs
// only above the 30 bits the set compares.
type beaconStream struct {
	rng   *rand.Rand
	peers []transport.IP
	last  map[transport.IP]heardRef
}

func (s *beaconStream) next() (transport.IP, heardRef) {
	ip := s.peers[s.rng.Intn(len(s.peers))]
	b, ok := s.last[ip]
	if !ok {
		b = heardRef{inc: 1, admin: s.rng.Intn(2) == 0, node: fmt.Sprintf("node-%d", uint32(ip))}
	}
	switch s.rng.Intn(40) {
	case 0:
		b.grouped = !b.grouped
	case 1:
		b.admin = !b.admin
	case 2:
		b.inc++
	case 3:
		b.inc++
		b.node += "'"
	case 4:
		b.inc ^= 1 << 31 // invisible to a 30-bit comparison
		b.node += "?"    // so this rename must not be picked up
	case 5:
		b.inc = 1 // back to what its segment-mates say
	}
	s.last[ip] = b
	return ip, b
}

func TestHeardSetMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := &beaconStream{rng: rand.New(rand.NewSource(seed)), peers: heardPeers(), last: map[transport.IP]heardRef{}}
		var h heardSet
		ref := heardModel{}
		for i := 0; i < 30_000; i++ {
			ip, b := s.next()
			name := h.put(ip, b.inc, b.grouped, b.admin)
			if changed := ref.put(ip, b.inc, b.grouped, b.admin, b.node); changed != (name != nil) {
				t.Fatalf("seed %d beacon %d from %v %+v: set says new=%v, map says %v", seed, i, ip, b, name != nil, changed)
			}
			if name != nil {
				*name = b.node
			}
			if i%5000 == 4999 || i < 50 {
				if got, want := h.appendUngrouped(nil), ref.ungrouped(); !slices.Equal(got, want) {
					t.Fatalf("seed %d beacon %d: ungrouped members differ:\n got %v\nwant %v", seed, i, got, want)
				}
			}
		}
	}
}

func TestHeardSetRepeatAllocatesNothing(t *testing.T) {
	var h heardSet
	peers := heardPeers()
	for _, ip := range peers {
		*h.put(ip, 1, false, true) = "n"
	}
	*h.put(peers[9], 2, false, true) = "n" // one peer restarted: its repeats carry the new incarnation
	i := 0
	if got := testing.AllocsPerRun(1000, func() {
		k := i % len(peers)
		inc := uint32(1)
		if k == 9 {
			inc = 2
		}
		if h.put(peers[k], inc, false, true) != nil {
			t.Fatal("repeat reported as new")
		}
		i++
	}); got != 0 {
		t.Errorf("repeat beacon: %.1f allocs, want 0", got)
	}
}

// beaconPacket is what peer ip would multicast.
func beaconPacket(ip transport.IP, b heardRef) []byte {
	bc := &wire.Beacon{Sender: ip, Node: b.node, Incarnation: b.inc, Admin: b.admin}
	if b.grouped {
		bc.Leader, bc.Version, bc.Members = transport.MakeIP(9, 9, 9, 9), 3, 2
	}
	return wire.Encode(bc)
}

// TestBeaconPhaseFormsFromHeardSet drives the real receive path: a lone
// adapter with the highest address is fed a random beacon stream as
// packets, the phase ends, and the membership it proposes must be itself
// plus exactly the map's ungrouped peers — and a restart must forget them.
func TestBeaconPhaseFormsFromHeardSet(t *testing.T) {
	h := newHarness(t, 7)
	cfg := fastConfig()
	self := transport.MakeIP(200, 0, 0, 1)
	d := h.addNode(cfg, "top", []transport.IP{self}, []string{"seg"})
	d.Start()
	p := d.adapters[0]

	var peers []transport.IP
	for _, ip := range heardPeers() {
		if ip < self { // keep the adapter the highest: it must lead
			peers = append(peers, ip)
		}
	}
	s := &beaconStream{rng: rand.New(rand.NewSource(7)), peers: peers, last: map[transport.IP]heardRef{}}
	ref := heardModel{}
	to := transport.Addr{IP: transport.BeaconGroup, Port: transport.PortBeacon}
	feed := func(n int) {
		for i := 0; i < n; i++ {
			ip, b := s.next()
			ref.put(ip, b.inc, b.grouped, b.admin, b.node)
			p.onBeaconPacket(transport.Addr{IP: ip, Port: transport.PortBeacon}, to, beaconPacket(ip, b))
		}
	}
	feed(20_000)
	assertHeldBelow(t, p)
	h.run(cfg.BeaconPhase + 1)
	if p.state != stLeader || p.lead.round == nil {
		t.Fatalf("state %v after the phase, round %v", p.state, p.lead)
	}
	want := append([]wire.Member{p.selfMember()}, ref.ungrouped()...)
	if got := p.lead.round.target.Members; !slices.Equal(got, want) {
		t.Fatalf("proposed membership differs from the map's:\n got %d: %v\nwant %d: %v", len(got), got[:min(5, len(got))], len(want), want[:min(5, len(want))])
	}
	if len(p.heard.peers) != 0 {
		t.Error("heard set survives the phase it belongs to")
	}

	d.Crash()
	d.Start()
	if p.state != stBeaconing {
		t.Fatalf("state %v after restart", p.state)
	}
	s.last, ref = map[transport.IP]heardRef{}, heardModel{}
	feed(300)
	assertHeldBelow(t, p)
	if got, want := p.heard.appendUngrouped(nil), ref.ungrouped(); !slices.Equal(got, want) {
		t.Fatalf("after a restart the set holds %d ungrouped peers, the map %d", len(got), len(want))
	}
}

// assertHeldBelow fails unless every peer p's heard set holds is below p's
// own address — what lets phase end lead on !outranked alone.
func assertHeldBelow(t *testing.T, p *adapterProto) {
	t.Helper()
	for _, q := range p.heard.peers {
		if q.ip >= p.self {
			t.Fatalf("%v holds %v in its heard set, not below its own address", p.self, q.ip)
		}
	}
}

// TestMemberIgnoresBeaconsUndecoded: an adapter that follows a leader does
// not act on beacons (§2.1) — so it must not even look at them: a torn
// beacon is counted as dropped by a beaconing adapter, outranked or not, and
// by a leader, and goes unseen by a member.
func TestMemberIgnoresBeaconsUndecoded(t *testing.T) {
	h := newHarness(t, 3)
	rec := trace.New(1 << 12)
	ips := []transport.IP{ipn(0, 1), ipn(0, 2)}
	for i, ip := range ips {
		d := h.addNode(fastConfig(), fmt.Sprintf("n%d", i), []transport.IP{ip}, []string{"seg"})
		d.SetTracer(rec)
		d.Start()
	}
	torn := wire.Encode(&wire.Beacon{Sender: ipn(0, 9), Node: "x"})
	torn = torn[:len(torn)-3]
	drops := func() int { return countKind(rec.Snapshot(), trace.KRxDropped) }
	to := transport.Addr{IP: transport.BeaconGroup, Port: transport.PortBeacon}
	deliver := func() {
		for _, d := range h.daemons {
			d.adapters[0].onBeaconPacket(transport.Addr{IP: ipn(0, 9)}, to, torn)
		}
	}
	// The lower adapter hears its peer first: outranked, it keeps no heard
	// set, but it still decodes, so its torn beacons still count.
	low := h.daemons["n0"].adapters[0]
	low.onBeaconPacket(transport.Addr{IP: ips[1]}, to, wire.Encode(&wire.Beacon{Sender: ips[1], Node: "n1", Incarnation: 1, Admin: true}))
	if !low.heard.outranked {
		t.Fatal("a beacon from the higher peer did not outrank the lower adapter")
	}
	deliver()
	if got := drops(); got != 2 {
		t.Fatalf("two beaconing adapters, one outranked, dropped %d torn beacons", got)
	}
	h.run(10 * time.Second)
	h.assertOneGroup(ips)
	deliver()
	if got := drops(); got != 3 {
		t.Fatalf("leader + member: %d drops in all, want 3 (the member must not decode)", got)
	}
}
