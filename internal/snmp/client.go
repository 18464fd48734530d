package snmp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/transport"
)

// ErrTimeout reports that all retries of a request went unanswered.
var ErrTimeout = errors.New("snmp: request timed out")

// RequestError carries a non-zero SNMP error-status from an agent.
type RequestError struct {
	Status int
	Index  int
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("snmp: agent returned error-status %d at index %d", e.Status, e.Index)
}

// Client issues SNMP requests over a transport endpoint. It is event-loop
// driven (callback style) to match the simulator's single-threaded world;
// the Do* helpers are what callers use.
type Client struct {
	ep        transport.Endpoint
	clock     transport.Clock
	community string
	// Timeout is the per-attempt wait; Retries the number of re-sends.
	Timeout time.Duration
	Retries int

	port    uint16
	nextID  int32
	pending map[int32]*call
}

type call struct {
	timer   transport.Timer
	done    func(*Message, error)
	msg     *Message
	dst     transport.Addr
	left    int
	timeout time.Duration
	c       *Client
}

// NewClient creates a client bound to a local port on ep. Each concurrent
// client on one adapter needs a distinct port.
func NewClient(ep transport.Endpoint, clock transport.Clock, community string, localPort uint16) *Client {
	c := &Client{
		ep:        ep,
		clock:     clock,
		community: community,
		Timeout:   500 * time.Millisecond,
		Retries:   3,
		port:      localPort,
		nextID:    1,
		pending:   make(map[int32]*call),
	}
	ep.Bind(localPort, c.handle)
	return c
}

func (c *Client) handle(_, _ transport.Addr, payload []byte) {
	m, err := Unmarshal(payload)
	if err != nil || m.Type != Response || m.Community != c.community {
		return
	}
	cl, ok := c.pending[m.RequestID]
	if !ok {
		return
	}
	delete(c.pending, m.RequestID)
	cl.timer.Stop()
	if m.ErrStatus != ErrStatusNoError {
		cl.done(m, &RequestError{Status: m.ErrStatus, Index: m.ErrIndex})
		return
	}
	cl.done(m, nil)
}

// Request sends typ with bindings to agent and invokes done exactly once:
// with the response, or with ErrTimeout after all retries lapse.
func (c *Client) Request(agent transport.Addr, typ PDUType, bindings []VarBind, done func(*Message, error)) {
	id := c.nextID
	c.nextID++
	msg := &Message{Community: c.community, Type: typ, RequestID: id, Bindings: bindings}
	cl := &call{done: done, msg: msg, dst: agent, left: c.Retries, timeout: c.Timeout, c: c}
	c.pending[id] = cl
	cl.send()
}

func (cl *call) send() {
	out, err := cl.msg.Marshal()
	if err != nil {
		delete(cl.c.pending, cl.msg.RequestID)
		cl.done(nil, err)
		return
	}
	_ = cl.c.ep.Unicast(cl.c.port, cl.dst, out)
	cl.timer = cl.c.clock.AfterFunc(cl.timeout, func() {
		if _, still := cl.c.pending[cl.msg.RequestID]; !still {
			return
		}
		if cl.left <= 0 {
			delete(cl.c.pending, cl.msg.RequestID)
			cl.done(nil, ErrTimeout)
			return
		}
		cl.left--
		cl.send()
	})
}

// Set writes one object.
func (c *Client) Set(agent transport.Addr, oid OID, v Value, done func(error)) {
	c.Request(agent, Set, []VarBind{{OID: oid, Value: v}}, func(_ *Message, err error) {
		done(err)
	})
}

// WalkPrefix performs a GETNEXT walk over everything under prefix,
// delivering the collected varbinds to done.
func (c *Client) WalkPrefix(agent transport.Addr, prefix OID, done func([]VarBind, error)) {
	var acc []VarBind
	var step func(from OID)
	step = func(from OID) {
		c.Request(agent, GetNext, []VarBind{{OID: from, Value: Null}}, func(m *Message, err error) {
			var reqErr *RequestError
			if errors.As(err, &reqErr) && reqErr.Status == ErrStatusNoSuchName {
				done(acc, nil) // clean end of MIB
				return
			}
			if err != nil {
				done(acc, err)
				return
			}
			if len(m.Bindings) != 1 {
				done(acc, ErrBadEncoding)
				return
			}
			vb := m.Bindings[0]
			if !vb.OID.HasPrefix(prefix) {
				done(acc, nil)
				return
			}
			acc = append(acc, vb)
			step(vb.OID)
		})
	}
	step(prefix)
}
