package conformance

import (
	"fmt"
	"net/url"
	"strconv"

	"repro/internal/configdb"
	"repro/internal/ordered"
)

// loopback wires the farm on the host loopback interface. Every adapter
// is a distinct 127.x address; VLAN segmentation is emulated by
// per-adapter multicast scope groups (transport.ScopedEndpoint inside
// each daemon, controlled over /fabricctl). Unprivileged: this is the
// fabric CI runs on every change.
type loopback struct{}

func (loopback) exec(string) []string { return nil }
func (loopback) up(*Fabric) error     { return nil }
func (loopback) down(*Fabric)         {}
func (loopback) wired(f *Fabric)      { pushSegments(f) }

// adapterArg scopes the adapter to its segment's multicast group.
func (loopback) adapterArg(f *Fabric, a configdb.AdapterSpec, vlan int) (string, error) {
	scope, ok := f.spec.Segments[vlan]
	if !ok {
		return "", fmt.Errorf("conformance: no scope group for VLAN %d", vlan)
	}
	return fmt.Sprintf("%v@%v", a.IP, scope), nil
}

// pushSegments distributes the fabric's current segment table (adapter ->
// scope group) to every live daemon. On a real network a bridge confines
// unicast to its segment; on one loopback interface every 127.x address
// reaches every other, so without this table a moved adapter would keep
// exchanging unicast heartbeats with its old segment forever and the
// protocol would never notice the move.
func pushSegments(f *Fabric) {
	f.mu.Lock()
	pairs := ""
	stale := false
	for _, ip := range ordered.Keys(f.vlan) {
		scope, ok := f.spec.Segments[f.vlan[ip]]
		if !ok {
			stale = true
			continue
		}
		if pairs != "" {
			pairs += ","
		}
		pairs += fmt.Sprintf("%v:%v", ip, scope)
	}
	var targets []*Daemon
	for _, d := range f.live { // order-free: every daemon gets the same table
		targets = append(targets, d)
	}
	f.mu.Unlock()
	if stale {
		f.logf("fabric: segment table has adapters on VLANs with no scope group")
	}
	q := url.Values{"map": {pairs}}
	for _, d := range targets {
		if err := httpGet(d.DebugURL()+"/fabricctl/segments?"+q.Encode(), nil, httpTimeout); err != nil {
			f.logf("fabric: segment push to %s failed: %v", d.Source(), err)
		}
	}
}

// fail sets the owning daemon's /fabricctl socket-level fault filter.
func (loopback) fail(f *Fabric, a configdb.AdapterSpec, mode string, lossIn, lossOut float64) error {
	d, running := f.Live(a.Node)
	if !running {
		return fmt.Errorf("conformance: %s is not running", a.Node)
	}
	q := url.Values{"adapter": {a.IP.String()}, "mode": {mode},
		"loss_in":  {strconv.FormatFloat(lossIn, 'f', -1, 64)},
		"loss_out": {strconv.FormatFloat(lossOut, 'f', -1, 64)}}
	return httpGet(d.DebugURL()+"/fabricctl/fault?"+q.Encode(), nil, httpTimeout)
}

// replug re-points the adapter's multicast scope inside its running
// daemon; a stopped daemon picks the scope up from its next command
// line.
func (loopback) replug(f *Fabric, a configdb.AdapterSpec, vlan int) error {
	scope, ok := f.spec.Segments[vlan]
	if !ok {
		return fmt.Errorf("conformance: no scope group for VLAN %d", vlan)
	}
	d, running := f.Live(a.Node)
	if !running {
		return nil
	}
	q := url.Values{"adapter": {a.IP.String()}, "group": {scope.String()}}
	return httpGet(d.DebugURL()+"/fabricctl/rescope?"+q.Encode(), nil, httpTimeout)
}
