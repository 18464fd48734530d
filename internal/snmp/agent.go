package snmp

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/transport"
)

// MIB is the management-information view an agent serves. The simulated
// switches in internal/switchsim implement it over their VLAN/port state.
type MIB interface {
	// Get returns the value at oid, or ErrNoSuchName.
	Get(oid OID) (Value, error)
	// Next returns the first (oid, value) strictly after the given oid in
	// walk order, or ErrNoSuchName at the end of the MIB.
	Next(oid OID) (OID, Value, error)
	// Set writes oid, or returns ErrNoSuchName / ErrNotWritable /
	// ErrBadValue.
	Set(oid OID, v Value) error
}

// Errors a MIB may return; the agent maps them to SNMP error-status codes.
var (
	ErrNoSuchName  = errors.New("snmp: no such name")
	ErrNotWritable = errors.New("snmp: not writable")
	ErrBadValue    = errors.New("snmp: bad value")
)

func errStatus(err error) int {
	switch {
	case err == nil:
		return ErrStatusNoError
	case errors.Is(err, ErrNoSuchName):
		return ErrStatusNoSuchName
	case errors.Is(err, ErrNotWritable):
		return ErrStatusNotWritable
	case errors.Is(err, ErrBadValue):
		return ErrStatusBadValue
	default:
		return ErrStatusGenErr
	}
}

// Agent serves a MIB over a transport endpoint (the switch's management
// adapter on the administrative segment).
type Agent struct {
	ep        transport.Endpoint
	mib       MIB
	community string
	port      uint16
}

// NewAgentOn binds an agent to ep's UDP port, answering requests
// carrying the given community string. Requests with the wrong community
// are silently dropped (classic SNMP behaviour). A simulated switch
// listens on transport.PortSNMP; the well-known port is privileged on
// real hosts, so unprivileged harnesses (CI) run their emulated switch
// agents high and point Central at the full address — the client
// already targets whatever port the agent Addr carries.
func NewAgentOn(ep transport.Endpoint, community string, mib MIB, port uint16) *Agent {
	a := &Agent{ep: ep, mib: mib, community: community, port: port}
	ep.Bind(port, a.handle)
	return a
}

func (a *Agent) handle(src, _ transport.Addr, payload []byte) {
	req, err := Unmarshal(payload)
	if err != nil || req.Community != a.community || req.Type == Response {
		return
	}
	resp := &Message{
		Community: a.community,
		Type:      Response,
		RequestID: req.RequestID,
		Bindings:  make([]VarBind, len(req.Bindings)),
	}
	copy(resp.Bindings, req.Bindings)
	for i, vb := range req.Bindings {
		var err error
		switch req.Type {
		case Get:
			var v Value
			v, err = a.mib.Get(vb.OID)
			if err == nil {
				resp.Bindings[i].Value = v
			}
		case GetNext:
			var next OID
			var v Value
			next, v, err = a.mib.Next(vb.OID)
			if err == nil {
				resp.Bindings[i] = VarBind{OID: next, Value: v}
			}
		case Set:
			err = a.mib.Set(vb.OID, vb.Value)
		}
		if err != nil {
			resp.ErrStatus = errStatus(err)
			resp.ErrIndex = i + 1
			break
		}
	}
	out, err := resp.Marshal()
	if err != nil {
		return
	}
	// Best effort; SNMP has no agent-side retry.
	_ = a.ep.Unicast(a.port, src, out)
}

// MapMIB is a MIB backed by an ordered map, with an optional write hook so
// switches can apply side effects (VLAN moves) on Set.
type MapMIB struct {
	vals     map[string]Value
	oids     []OID // sorted
	writable map[string]bool
	// OnSet, if non-nil, runs after a successful Set with the new value.
	OnSet func(oid OID, v Value)
	// Validate, if non-nil, can veto a Set with ErrBadValue et al.
	Validate func(oid OID, v Value) error
}

// NewMapMIB returns an empty MapMIB.
func NewMapMIB() *MapMIB {
	return &MapMIB{vals: make(map[string]Value), writable: make(map[string]bool)}
}

// Define installs an object. writable controls Set access.
func (m *MapMIB) Define(oid OID, v Value, writable bool) {
	key := oid.String()
	if _, exists := m.vals[key]; !exists {
		i, _ := slices.BinarySearchFunc(m.oids, oid, OID.Compare)
		m.oids = slices.Insert(m.oids, i, oid.Append()) // copy
	}
	m.vals[key] = v
	m.writable[key] = writable
}

// Update changes an existing object's value without touching writability,
// bypassing validation (for the device updating its own state).
func (m *MapMIB) Update(oid OID, v Value) error {
	key := oid.String()
	if _, ok := m.vals[key]; !ok {
		return fmt.Errorf("%w: %v", ErrNoSuchName, oid)
	}
	m.vals[key] = v
	return nil
}

// Get implements MIB.
func (m *MapMIB) Get(oid OID) (Value, error) {
	v, ok := m.vals[oid.String()]
	if !ok {
		return Null, fmt.Errorf("%w: %v", ErrNoSuchName, oid)
	}
	return v, nil
}

// Next implements MIB.
func (m *MapMIB) Next(oid OID) (OID, Value, error) {
	i, found := slices.BinarySearchFunc(m.oids, oid, OID.Compare)
	if found {
		i++
	}
	if i == len(m.oids) {
		return nil, Null, fmt.Errorf("%w: walked past end", ErrNoSuchName)
	}
	o := m.oids[i]
	return o, m.vals[o.String()], nil
}

// Set implements MIB.
func (m *MapMIB) Set(oid OID, v Value) error {
	key := oid.String()
	if _, ok := m.vals[key]; !ok {
		return fmt.Errorf("%w: %v", ErrNoSuchName, oid)
	}
	if !m.writable[key] {
		return fmt.Errorf("%w: %v", ErrNotWritable, oid)
	}
	if m.Validate != nil {
		if err := m.Validate(oid, v); err != nil {
			return err
		}
	}
	m.vals[key] = v
	if m.OnSet != nil {
		m.OnSet(oid, v)
	}
	return nil
}
