package snmp

import (
	"errors"
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
