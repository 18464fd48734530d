package configdb

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/transport"
)

// randomDB builds a database with n nodes of 1-3 adapters each.
func randomDB(rng *rand.Rand, n int) *DB {
	db := New()
	ordinal := 0
	for i := 0; i < n; i++ {
		node := fmt.Sprintf("node-%03d", i)
		db.AddNode(node, fmt.Sprintf("dom-%d", i%3), "role")
		adapters := rng.Intn(3) + 1
		for a := 0; a < adapters; a++ {
			ordinal++
			_ = db.AddAdapter(AdapterSpec{
				IP:     transport.MakeIP(10, byte(a+1), byte(ordinal/200), byte(ordinal%200+1)),
				Node:   node,
				Index:  a,
				VLAN:   100 + a,
				Switch: fmt.Sprintf("sw-%d", i%4),
				Port:   ordinal,
			})
		}
	}
	return db
}

// Property: JSON round-trips preserve every adapter and node record.
func TestPropertyJSONRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, int(nRaw%20)+1)
		data, err := json.Marshal(db)
		if err != nil {
			return false
		}
		back := New()
		if err := json.Unmarshal(data, back); err != nil {
			return false
		}
		as, bs := db.Adapters(), back.Adapters()
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
		an, bn := db.Nodes(), back.Nodes()
		if len(an) != len(bn) {
			return false
		}
		for i := range an {
			if an[i].Name != bn[i].Name || an[i].Domain != bn[i].Domain || an[i].Role != bn[i].Role {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a discovered grouping that exactly matches expectations (one
// group per expected VLAN) verifies clean; removing one adapter from it
// yields exactly one missing-adapter finding.
func TestPropertyVerifyExactGrouping(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, int(nRaw%15)+2)
		groups := map[transport.IP][]transport.IP{}
		byVLAN := map[int][]transport.IP{}
		for _, a := range db.Adapters() {
			byVLAN[a.VLAN] = append(byVLAN[a.VLAN], a.IP)
		}
		for _, ips := range byVLAN {
			leader := ips[0]
			for _, ip := range ips {
				if ip > leader {
					leader = ip
				}
			}
			groups[leader] = ips
		}
		if ms := db.Verify(groups); len(ms) != 0 {
			return false
		}
		// Drop one adapter from its group.
		all := db.Adapters()
		victim := all[rng.Intn(len(all))]
		for leader, ips := range groups {
			var keep []transport.IP
			for _, ip := range ips {
				if ip != victim.IP {
					keep = append(keep, ip)
				}
			}
			if len(keep) == 0 {
				delete(groups, leader)
			} else {
				groups[leader] = keep
			}
		}
		ms := db.Verify(groups)
		missing := 0
		for _, m := range ms {
			if m.Kind == MissingAdapter && m.Adapter == victim.IP {
				missing++
			} else if m.Kind == MissingAdapter {
				return false
			}
		}
		return missing == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// scanSwitch is the reference for the wiring index: what AdaptersOnSwitch
// computed before it was indexed.
func scanSwitch(db *DB, name string) []transport.IP {
	var out []transport.IP
	for _, a := range db.Adapters() { // ascending IP
		if a.Switch == name {
			out = append(out, a.IP)
		}
	}
	return out
}

// checkWiringIndex compares the index with a scan for every switch the
// database names, the unwired bucket and a switch it has never heard of.
func checkWiringIndex(t *testing.T, db *DB, when string) {
	t.Helper()
	names := map[string]bool{"": true, "sw-absent": true}
	for _, a := range db.Adapters() {
		names[a.Switch] = true
	}
	wired := 0
	for name := range names {
		got, want := db.AdaptersOnSwitch(name), scanSwitch(db, name)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: AdaptersOnSwitch(%q) = %v, scan says %v", when, name, got, want)
		}
		if !slices.IsSorted(got) {
			t.Fatalf("%s: AdaptersOnSwitch(%q) not ascending: %v", when, name, got)
		}
		if name != "" && len(want) > 0 {
			wired++
		}
	}
	if got := db.Switches(); len(got) != wired || !slices.IsSorted(got) || slices.Contains(got, "") {
		t.Fatalf("%s: Switches() = %v, want %d sorted non-empty names", when, got, wired)
	}
	for _, n := range db.Nodes() {
		if !slices.IsSorted(n.Adapters) {
			t.Fatalf("%s: node %s adapters not ascending: %v", when, n.Name, n.Adapters)
		}
	}
}

// Property: through any mix of AddAdapter (in random IP order, with
// duplicates and unwired adapters), JSON round trips and Save/Load, the
// wiring index equals a brute-force scan, and a rejected duplicate leaves
// it untouched.
func TestPropertyWiringIndexMatchesScan(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := New()
		for step := 0; step < 120; step++ {
			when := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(20); {
			case op < 16:
				spec := AdapterSpec{
					IP:   transport.MakeIP(10, byte(rng.Intn(3)), byte(rng.Intn(2)), byte(rng.Intn(60)+1)),
					Node: fmt.Sprintf("node-%02d", rng.Intn(25)), Index: rng.Intn(3), VLAN: 100 + rng.Intn(4),
					Port: step,
				}
				if rng.Intn(8) != 0 { // one in eight stays unwired
					spec.Switch = fmt.Sprintf("sw-%d", rng.Intn(5))
				}
				_, dup := db.Adapter(spec.IP)
				before := len(db.AdaptersOnSwitch(spec.Switch))
				err := db.AddAdapter(spec)
				if dup != (err != nil) {
					t.Fatalf("%s: duplicate=%v but AddAdapter returned %v", when, dup, err)
				}
				if after := len(db.AdaptersOnSwitch(spec.Switch)); dup && after != before {
					t.Fatalf("%s: rejected duplicate changed the index (%d -> %d)", when, before, after)
				}
			case op < 18:
				data, err := json.Marshal(db)
				if err != nil {
					t.Fatal(err)
				}
				// Into a database that already holds something: the
				// index must be rebuilt, not added to.
				back := randomDB(rng, 3)
				if err := json.Unmarshal(data, back); err != nil {
					t.Fatal(err)
				}
				db = back
			default:
				path := filepath.Join(dir, "db.json")
				if err := db.Save(path); err != nil {
					t.Fatal(err)
				}
				back, err := Load(path)
				if err != nil {
					t.Fatal(err)
				}
				db = back
			}
			checkWiringIndex(t, db, when)
		}
	}
}

// A caller that appends to a returned wiring list gets its own copy: a
// later AddAdapter must not write through into it.
func TestAdaptersOnSwitchAppendDoesNotAlias(t *testing.T) {
	db := New()
	for d := byte(1); d <= 3; d++ {
		_ = db.AddAdapter(AdapterSpec{IP: transport.MakeIP(10, 0, 0, d), Node: "n", Switch: "sw"})
	}
	extra := transport.MakeIP(10, 0, 0, 200)
	mine := append(db.AdaptersOnSwitch("sw"), extra)
	_ = db.AddAdapter(AdapterSpec{IP: transport.MakeIP(10, 0, 0, 9), Node: "n", Switch: "sw"})
	if mine[3] != extra {
		t.Fatalf("AddAdapter wrote %v into a caller's appended copy", mine[3])
	}
	checkWiringIndex(t, db, "after append to a returned list")
}
