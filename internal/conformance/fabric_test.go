package conformance

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/farm"
)

// TestCommandLine pins the gsd command line the lifecycle builds for
// web-1's first incarnation on each substrate. Both literals are the
// command lines the two fabrics built before they shared one lifecycle,
// so this is the local evidence that the netns fabric, which needs root
// to run, still launches the same process. DefaultFarm's addresses are
// pid-derived: {B} is its 127.B loopback byte, {G} its 239.G scope byte.
func TestCommandLine(t *testing.T) {
	lb := DefaultFarm()
	loopbackWant := strings.NewReplacer(
		"{B}", strconv.Itoa(int(byte(lb.Switches[0].IP>>16))),
		"{G}", strconv.Itoa(int(byte(lb.Segments[farm.AdminVLAN]>>16))),
	)
	for _, c := range []struct {
		name string
		spec *FarmSpec
		sub  substrate
		want []string
	}{
		{"loopback", lb, loopback{}, []string{"/bin/gsd", "-node", "web-1", "-adapters", "127.{B}.0.11@239.{G}.2.1,127.{B}.1.11@239.{G}.2.101", "-fast", "-seed", "1001", "-configdb", "/art/configdb.json", "-community", "farm-admin", "-switches", "sw-1=127.{B}.0.254:10161", "-journal-dir", "/art/journal/web-1", "-debug-addr", "127.{B}.0.11:0", "-fabric-ctl", "-trace-cap", "16384", "-ready-fd", "3"}},
		{"netns", NetnsFarm(), &netns{prefix: "gs42"}, []string{"ip", "netns", "exec", "gs42-web-1", "/bin/gsd", "-node", "web-1", "-adapters", "10.70.0.11,10.71.0.11", "-fast", "-seed", "1001", "-configdb", "/art/configdb.json", "-community", "farm-admin", "-switches", "sw-1=10.70.0.254:10161", "-journal-dir", "/art/journal/web-1", "-debug-addr", "10.70.0.11:0", "-fabric-ctl", "-trace-cap", "16384", "-ready-fd", "3"}},
	} {
		f := newFabric(c.spec, c.sub, "/bin/gsd", "/art", nil)
		f.dbPath = "/art/configdb.json" // Boot's choice, without writing it
		got, err := f.command("web-1", 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := slices.Clone(c.want)
		if c.name == "loopback" {
			for i := range want {
				want[i] = loopbackWant.Replace(want[i])
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s command line:\n got %q\nwant %q", c.name, got, want)
		}
	}
}
