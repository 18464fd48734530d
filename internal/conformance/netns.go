package conformance

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"

	"repro/internal/configdb"
	"repro/internal/farm"
	"repro/internal/ordered"
	"repro/internal/transport"
)

// netns wires the farm across Linux network namespaces: one namespace
// per node, one bridge per VLAN segment, one veth pair per adapter.
// Broadcast domains are real kernel bridges, so the daemons' multicast
// beaconing, the SNMP plane, and segment isolation are exercised with
// no emulation inside the process at all: a VLAN move is literally
// re-plugging the veth into another bridge, and adapter failure modes
// are link-down and tc-netem loss on the wire. Needs root and
// iproute2; this is the nightly fabric.
type netns struct {
	prefix string // resource-name prefix, pid-derived

	mu      sync.Mutex
	bridges map[int]bool // VLANs whose bridge this run created
}

// newNetns checks the environment (root, iproute2).
func newNetns() (*netns, error) {
	if os.Geteuid() != 0 {
		return nil, fmt.Errorf("conformance: the netns fabric needs root")
	}
	if _, err := exec.LookPath("ip"); err != nil {
		return nil, fmt.Errorf("conformance: the netns fabric needs iproute2: %w", err)
	}
	return &netns{prefix: fmt.Sprintf("gs%d", os.Getpid()%1000), bridges: map[int]bool{}}, nil
}

// adapterArg: real broadcast domains need no scoping.
func (*netns) adapterArg(_ *Fabric, a configdb.AdapterSpec, _ int) (string, error) {
	return a.IP.String(), nil
}

func (n *netns) exec(node string) []string { return []string{"ip", "netns", "exec", n.nsName(node)} }

func (*netns) wired(*Fabric) {}

// Resource names. Interface names are capped at 15 chars; the prefix
// is <=6 ("gs999"), node indexes single-digit.
func (n *netns) nsName(node string) string { return n.prefix + "-" + node }
func (n *netns) brName(vlan int) string    { return fmt.Sprintf("%s-br%d", n.prefix, vlan) }
func (n *netns) vethRoot(port int) string  { return fmt.Sprintf("%s-p%d", n.prefix, port) }
func vethInner(idx int) string             { return fmt.Sprintf("eth%d", idx) }
func (n *netns) hostVeth() string          { return n.prefix + "-host" }
func (n *netns) hostVethPeer() string      { return n.prefix + "-hostp" }

// sh runs one command, returning combined output in the error.
func sh(name string, args ...string) error {
	out, err := exec.Command(name, args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("conformance: %s %s: %v: %s", name, strings.Join(args, " "), err, strings.TrimSpace(string(out)))
	}
	return nil
}

// inNS runs one command inside a node's namespace.
func (n *netns) inNS(node, name string, args ...string) error {
	return sh("ip", append([]string{"netns", "exec", n.nsName(node), name}, args...)...)
}

func maskFor(ip transport.IP) string {
	// Admin and data planes each sit in one flat subnet so an adapter
	// keeps its address across a VLAN re-plug.
	if byte(ip>>16) == 70 {
		return "24"
	}
	return "16"
}

// bridge makes sure the VLAN's bridge exists. Multicast snooping is
// off, so beacon groups flood the whole segment like a dumb switch.
func (n *netns) bridge(vlan int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.bridges[vlan] {
		return nil
	}
	br := n.brName(vlan)
	if err := sh("ip", "link", "add", br, "type", "bridge", "mcast_snooping", "0"); err != nil {
		return err
	}
	n.bridges[vlan] = true
	return sh("ip", "link", "set", br, "up")
}

// up builds a bridge per VLAN in use, the harness's own foothold on the
// admin segment, and each node's namespace with its veths.
func (n *netns) up(f *Fabric) error {
	vlans := map[int]bool{}
	for _, v := range f.vlan {
		vlans[v] = true
	}
	for _, v := range ordered.Keys(vlans) {
		if err := n.bridge(v); err != nil {
			return err
		}
	}

	// A veth into the admin bridge carries the switch-agent address.
	if err := sh("ip", "link", "add", n.hostVeth(), "type", "veth", "peer", "name", n.hostVethPeer()); err != nil {
		return err
	}
	if err := sh("ip", "link", "set", n.hostVethPeer(), "master", n.brName(farm.AdminVLAN)); err != nil {
		return err
	}
	for _, link := range []string{n.hostVeth(), n.hostVethPeer()} {
		if err := sh("ip", "link", "set", link, "up"); err != nil {
			return err
		}
	}
	if err := sh("ip", "addr", "add", f.spec.Switches[0].IP.String()+"/24", "dev", n.hostVeth()); err != nil {
		return err
	}

	for _, node := range f.spec.Nodes {
		ns := n.nsName(node.Name)
		if err := sh("ip", "netns", "add", ns); err != nil {
			return err
		}
		if err := n.inNS(node.Name, "ip", "link", "set", "lo", "up"); err != nil {
			return err
		}
		for _, a := range node.Adapters {
			root, inner := n.vethRoot(a.Port), vethInner(a.Index)
			if err := sh("ip", "link", "add", root, "type", "veth", "peer", "name", inner, "netns", ns); err != nil {
				return err
			}
			if err := sh("ip", "link", "set", root, "master", n.brName(f.vlan[a.IP])); err != nil {
				return err
			}
			if err := sh("ip", "link", "set", root, "up"); err != nil {
				return err
			}
			if err := n.inNS(node.Name, "ip", "addr", "add", a.IP.String()+"/"+maskFor(a.IP), "dev", inner); err != nil {
				return err
			}
			if err := n.inNS(node.Name, "ip", "link", "set", inner, "up"); err != nil {
				return err
			}
		}
	}
	return nil
}

// down removes the namespaces (their veths die with them), the host
// veth, and every bridge this run created, vacated ones included.
func (n *netns) down(f *Fabric) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.bridges) == 0 {
		return
	}
	for _, node := range f.spec.Nodes {
		_ = sh("ip", "netns", "del", n.nsName(node.Name))
	}
	_ = sh("ip", "link", "del", n.hostVeth())
	for _, v := range ordered.Keys(n.bridges) {
		_ = sh("ip", "link", "del", n.brName(v))
	}
	n.bridges = map[int]bool{}
}

// fail uses link state and tc-netem loss: fail-stop downs the link,
// fail-recv drops everything flowing toward the node (root-side veth
// egress), fail-send drops everything the node transmits
// (namespace-side egress). Partial rates use the same qdiscs with the
// given percentages.
func (n *netns) fail(_ *Fabric, a configdb.AdapterSpec, mode string, lossIn, lossOut float64) error {
	node, root, inner := a.Node, n.vethRoot(a.Port), vethInner(a.Index)

	// Reset everything first; each mode reapplies what it needs.
	_ = sh("tc", "qdisc", "del", "dev", root, "root")
	_ = n.inNS(node, "tc", "qdisc", "del", "dev", inner, "root")
	if err := n.inNS(node, "ip", "link", "set", inner, "up"); err != nil {
		return err
	}

	netem := func(dev string, inNode bool, pct float64) error {
		loss := strconv.FormatFloat(pct*100, 'f', 2, 64) + "%"
		if inNode {
			return n.inNS(node, "tc", "qdisc", "add", "dev", dev, "root", "netem", "loss", loss)
		}
		return sh("tc", "qdisc", "add", "dev", dev, "root", "netem", "loss", loss)
	}
	switch mode {
	case "", "healthy":
		if lossIn > 0 {
			if err := netem(root, false, lossIn); err != nil {
				return err
			}
		}
		if lossOut > 0 {
			if err := netem(inner, true, lossOut); err != nil {
				return err
			}
		}
		return nil
	case "fail-stop":
		return n.inNS(node, "ip", "link", "set", inner, "down")
	case "fail-recv":
		return netem(root, false, 1)
	case "fail-send":
		return netem(inner, true, 1)
	default:
		return fmt.Errorf("conformance: unknown failure mode %q", mode)
	}
}

// replug moves the root-side veth into the VLAN's bridge, creating the
// bridge when the VLAN has none yet (the first adapter in a fresh
// domain).
func (n *netns) replug(_ *Fabric, a configdb.AdapterSpec, vlan int) error {
	if err := n.bridge(vlan); err != nil {
		return err
	}
	return sh("ip", "link", "set", n.vethRoot(a.Port), "master", n.brName(vlan))
}
