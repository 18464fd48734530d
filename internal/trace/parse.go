package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/transport"
)

// This file is the read side of the dump format: the conformance harness
// scrapes each real daemon's /trace endpoint and rebuilds []Record from
// the JSON, so the invariant engine and span auditor run on real-daemon
// streams exactly as they do on simulated ones.

// kindByName is the reverse of kindNames, built once.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, name := range kindNames {
		if name != "" {
			m[name] = Kind(k)
		}
	}
	return m
}()

// ParseKind resolves a dump kind string ("view-commit") to its Kind.
func ParseKind(s string) (Kind, bool) {
	k, ok := kindByName[s]
	return k, ok
}

// UnmarshalJSON implements json.Unmarshaler, inverting Record.MarshalJSON:
// t_sec back to a Duration, dotted-quad addresses back to transport.IP.
// An unknown kind string is an error (the dump and the reader disagree on
// the protocol vocabulary — better loud than silently unclassified).
func (r *Record) UnmarshalJSON(data []byte) error {
	var j recordJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	k, ok := ParseKind(j.Kind)
	if !ok {
		return fmt.Errorf("trace: unknown record kind %q", j.Kind)
	}
	parseIP := func(s, field string) (transport.IP, error) {
		if s == "" {
			return 0, nil
		}
		ip, ok := transport.ParseIP(s)
		if !ok {
			return 0, fmt.Errorf("trace: bad %s address %q", field, s)
		}
		return ip, nil
	}
	self, err := parseIP(j.Self, "self")
	if err != nil {
		return err
	}
	peer, err := parseIP(j.Peer, "peer")
	if err != nil {
		return err
	}
	group, err := parseIP(j.Group, "group")
	if err != nil {
		return err
	}
	*r = Record{
		Seq:     j.Seq,
		T:       time.Duration(math.Round(j.T * float64(time.Second))),
		Kind:    k,
		Node:    j.Node,
		Self:    self,
		Peer:    peer,
		Group:   group,
		Version: j.Version,
		Token:   j.Token,
		Count:   j.Count,
		Digest:  Digest(j.Digest),
		Detail:  j.Detail,
	}
	return nil
}

// Dump is one WriteJSON document; json.Unmarshal reads it back.
type Dump struct {
	Total   uint64   `json:"total"`
	Dropped uint64   `json:"dropped"`
	Cap     int      `json:"capacity"`
	Records []Record `json:"records"`
}
