package snmp

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

type snmpFixture struct {
	sched  *sim.Scheduler
	client *Client
	agent  transport.Addr
	mib    *MapMIB
}

func newSNMPFixture(t *testing.T, loss float64) *snmpFixture {
	t.Helper()
	sched := sim.NewScheduler(21)
	res := netsim.NewStaticResolver()
	net := netsim.New(sched, res)
	if loss > 0 {
		net.SetDefaultProfile(netsim.LinkProfile{Loss: loss, Latency: time.Millisecond})
	}
	agentEP := net.AddAdapter(transport.MakeIP(10, 9, 0, 1), "switch0")
	clientEP := net.AddAdapter(transport.MakeIP(10, 9, 0, 2), "central")
	res.Attach(agentEP.LocalIP(), "admin")
	res.Attach(clientEP.LocalIP(), "admin")

	mib := NewMapMIB()
	mib.Define(MustOID("1.3.6.1.4.1.2.1.1"), Integer(100), true)
	mib.Define(MustOID("1.3.6.1.4.1.2.1.2"), Integer(200), false)
	mib.Define(MustOID("1.3.6.1.4.1.2.2.1"), OctetString("port-1"), false)
	NewAgentOn(agentEP, "farm-admin", mib, transport.PortSNMP)

	cl := NewClient(clientEP, schedClock{sched}, "farm-admin", 40000)
	return &snmpFixture{
		sched:  sched,
		client: cl,
		agent:  transport.Addr{IP: agentEP.LocalIP(), Port: transport.PortSNMP},
		mib:    mib,
	}
}

// schedClock adapts *sim.Scheduler to transport.Clock.
type schedClock struct{ s *sim.Scheduler }

func (c schedClock) Now() time.Duration { return c.s.Now() }
func (c schedClock) AfterFunc(d time.Duration, fn func()) transport.Timer {
	return c.s.AfterFunc(d, fn)
}

func TestGetRoundTrip(t *testing.T) {
	f := newSNMPFixture(t, 0)
	var got Value
	var gotErr error
	done := false
	f.client.Get(f.agent, MustOID("1.3.6.1.4.1.2.1.1"), func(v Value, err error) {
		got, gotErr, done = v, err, true
	})
	f.sched.Run()
	if !done || gotErr != nil {
		t.Fatalf("done=%v err=%v", done, gotErr)
	}
	if !got.Equal(Integer(100)) {
		t.Fatalf("got %v, want 100", got)
	}
}

func TestGetNoSuchName(t *testing.T) {
	f := newSNMPFixture(t, 0)
	var gotErr error
	f.client.Get(f.agent, MustOID("1.3.6.1.4.1.9.9.9"), func(_ Value, err error) { gotErr = err })
	f.sched.Run()
	var re *RequestError
	if !errors.As(gotErr, &re) || re.Status != ErrStatusNoSuchName {
		t.Fatalf("err = %v, want noSuchName RequestError", gotErr)
	}
}

func TestSetWritableAndHook(t *testing.T) {
	f := newSNMPFixture(t, 0)
	var hookOID OID
	var hookVal Value
	f.mib.OnSet = func(oid OID, v Value) { hookOID, hookVal = oid, v }
	var setErr error
	f.client.Set(f.agent, MustOID("1.3.6.1.4.1.2.1.1"), Integer(103), func(err error) { setErr = err })
	f.sched.Run()
	if setErr != nil {
		t.Fatal(setErr)
	}
	if v, _ := f.mib.Get(MustOID("1.3.6.1.4.1.2.1.1")); !v.Equal(Integer(103)) {
		t.Fatalf("MIB value = %v after set", v)
	}
	if hookOID.String() != "1.3.6.1.4.1.2.1.1" || !hookVal.Equal(Integer(103)) {
		t.Fatalf("hook got %v=%v", hookOID, hookVal)
	}
}

func TestSetReadOnlyRejected(t *testing.T) {
	f := newSNMPFixture(t, 0)
	var setErr error
	f.client.Set(f.agent, MustOID("1.3.6.1.4.1.2.1.2"), Integer(9), func(err error) { setErr = err })
	f.sched.Run()
	var re *RequestError
	if !errors.As(setErr, &re) || re.Status != ErrStatusNotWritable {
		t.Fatalf("err = %v, want notWritable", setErr)
	}
	if v, _ := f.mib.Get(MustOID("1.3.6.1.4.1.2.1.2")); !v.Equal(Integer(200)) {
		t.Fatal("read-only value changed")
	}
}

func TestSetValidateVeto(t *testing.T) {
	f := newSNMPFixture(t, 0)
	f.mib.Validate = func(_ OID, v Value) error {
		if v.Kind != KindInteger {
			return ErrBadValue
		}
		return nil
	}
	var setErr error
	f.client.Set(f.agent, MustOID("1.3.6.1.4.1.2.1.1"), OctetString("nope"), func(err error) { setErr = err })
	f.sched.Run()
	var re *RequestError
	if !errors.As(setErr, &re) || re.Status != ErrStatusBadValue {
		t.Fatalf("err = %v, want badValue", setErr)
	}
}

func TestWalkPrefix(t *testing.T) {
	f := newSNMPFixture(t, 0)
	var got []VarBind
	var gotErr error
	f.client.WalkPrefix(f.agent, MustOID("1.3.6.1.4.1.2.1"), func(vbs []VarBind, err error) {
		got, gotErr = vbs, err
	})
	f.sched.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if len(got) != 2 {
		t.Fatalf("walk returned %d binds, want 2", len(got))
	}
	if got[0].OID.String() != "1.3.6.1.4.1.2.1.1" || got[1].OID.String() != "1.3.6.1.4.1.2.1.2" {
		t.Fatalf("walk order wrong: %v, %v", got[0].OID, got[1].OID)
	}
}

func TestWalkWholeMIBStopsAtEnd(t *testing.T) {
	f := newSNMPFixture(t, 0)
	var got []VarBind
	f.client.WalkPrefix(f.agent, MustOID("1.3"), func(vbs []VarBind, err error) {
		if err != nil {
			t.Errorf("walk error: %v", err)
		}
		got = vbs
	})
	f.sched.Run()
	if len(got) != 3 {
		t.Fatalf("walk returned %d binds, want 3", len(got))
	}
}

func TestWrongCommunityDropsSilently(t *testing.T) {
	f := newSNMPFixture(t, 0)
	sched := f.sched
	// A second client on the same adapter, wrong community, fresh port.
	cl := NewClient(f.client.ep, schedClock{sched}, "wrong", 40001)
	cl.Timeout = 100 * time.Millisecond
	cl.Retries = 1
	var gotErr error
	cl.Get(f.agent, MustOID("1.3.6.1.4.1.2.1.1"), func(_ Value, err error) { gotErr = err })
	sched.Run()
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want timeout (silent drop)", gotErr)
	}
}

func TestRetryRecoversFromLoss(t *testing.T) {
	f := newSNMPFixture(t, 0.45)
	f.client.Timeout = 50 * time.Millisecond
	f.client.Retries = 20
	okCount := 0
	for i := 0; i < 30; i++ {
		f.client.Get(f.agent, MustOID("1.3.6.1.4.1.2.1.1"), func(_ Value, err error) {
			if err == nil {
				okCount++
			}
		})
	}
	f.sched.Run()
	if okCount < 28 {
		t.Fatalf("only %d/30 requests survived 45%% loss with retries", okCount)
	}
}

func TestTimeoutWhenAgentUnreachable(t *testing.T) {
	f := newSNMPFixture(t, 0)
	f.client.Timeout = 50 * time.Millisecond
	f.client.Retries = 2
	var gotErr error
	// No agent at this address.
	f.client.Get(transport.Addr{IP: transport.MakeIP(10, 9, 0, 99), Port: 161},
		MustOID("1.3.6.1.4.1.2.1.1"), func(_ Value, err error) { gotErr = err })
	start := f.sched.Now()
	f.sched.Run()
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	elapsed := f.sched.Now() - start
	if elapsed < 150*time.Millisecond {
		t.Fatalf("timed out after %v, want >= 3 attempts x 50ms", elapsed)
	}
}

func TestMapMIBUpdate(t *testing.T) {
	m := NewMapMIB()
	oid := MustOID("1.3.6.1.4.1.2.7.1")
	m.Define(oid, Integer(1), false)
	if err := m.Update(oid, Integer(2)); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Get(oid); !v.Equal(Integer(2)) {
		t.Fatal("Update did not apply")
	}
	if err := m.Update(MustOID("1.3.6.1.4.1.2.7.2"), Integer(3)); !errors.Is(err, ErrNoSuchName) {
		t.Fatal("Update on missing OID must fail")
	}
}

func TestMapMIBNextOrder(t *testing.T) {
	m := NewMapMIB()
	m.Define(MustOID("1.3.6.1.2"), Integer(2), false)
	m.Define(MustOID("1.3.6.1.1"), Integer(1), false)
	m.Define(MustOID("1.3.6.1.1.5"), Integer(15), false)
	oid, v, err := m.Next(MustOID("1.3.6.1.1"))
	if err != nil || oid.String() != "1.3.6.1.1.5" || !v.Equal(Integer(15)) {
		t.Fatalf("Next = %v %v %v", oid, v, err)
	}
	_, _, err = m.Next(MustOID("1.3.6.1.2"))
	if !errors.Is(err, ErrNoSuchName) {
		t.Fatalf("Next past end = %v, want ErrNoSuchName", err)
	}
}

// Get fetches one object.
func (c *Client) Get(agent transport.Addr, oid OID, done func(Value, error)) {
	c.Request(agent, Get, []VarBind{{OID: oid, Value: Null}}, func(m *Message, err error) {
		if err != nil {
			done(Null, err)
			return
		}
		if len(m.Bindings) != 1 {
			done(Null, ErrBadEncoding)
			return
		}
		done(m.Bindings[0].Value, nil)
	})
}

// TestMapMIBOrderedInsert: Define keeps the OID list in walk order by
// inserting in place, so defining the same objects in shuffled order gives
// the same Next chain as defining them sorted, and Next's binary search
// agrees with a linear scan from every defined OID and from probes that
// fall between, before and after them.
func TestMapMIBOrderedInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var oids []OID
	for i := 0; i < 300; i++ {
		o := MustOID("1.3.6.1.4.1")
		for k := rng.Intn(4); k >= 0; k-- {
			o = o.Append(uint32(rng.Intn(6)))
		}
		oids = append(oids, o)
	}
	sorted := slices.Clone(oids)
	slices.SortFunc(sorted, OID.Compare)
	sorted = slices.CompactFunc(sorted, func(a, b OID) bool { return a.Compare(b) == 0 })

	inOrder, shuffled := NewMapMIB(), NewMapMIB()
	for _, o := range sorted {
		inOrder.Define(o, Integer(int64(len(o))), false)
	}
	for _, i := range rng.Perm(len(oids)) {
		shuffled.Define(oids[i], Integer(int64(len(oids[i]))), false)
	}
	chain := func(m *MapMIB) []string {
		var out []string
		for o := MustOID("1.0"); ; {
			next, _, err := m.Next(o)
			if err != nil {
				return out
			}
			out = append(out, next.String())
			o = next
		}
	}
	if a, b := chain(inOrder), chain(shuffled); !slices.Equal(a, b) || len(a) != len(sorted) {
		t.Fatalf("Next chains differ: sorted define %d objects, shuffled %d (want %d)", len(a), len(b), len(sorted))
	}

	linear := func(probe OID) (OID, bool) {
		for _, o := range sorted {
			if o.Compare(probe) > 0 {
				return o, true
			}
		}
		return nil, false
	}
	probes := slices.Clone(sorted)
	for _, o := range sorted {
		probes = append(probes, o.Append(0), o[:len(o)-1], o.Append(9, 9))
	}
	probes = append(probes, MustOID("1.0"), MustOID("1.3.6.1.4.2"))
	for _, p := range probes {
		want, ok := linear(p)
		got, _, err := shuffled.Next(p)
		if !ok {
			if !errors.Is(err, ErrNoSuchName) {
				t.Fatalf("Next(%v) = %v, %v; want end of MIB", p, got, err)
			}
			continue
		}
		if err != nil || got.Compare(want) != 0 {
			t.Fatalf("Next(%v) = %v, %v; linear scan gives %v", p, got, err, want)
		}
	}
}
