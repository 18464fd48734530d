package check

import (
	"reflect"
	"testing"
)

// FuzzScheduleParse throws arbitrary text at the schedule DSL parser,
// as a whole schedule (Parse) and as the single op line an interactive
// console hands to ParseOp. Whatever parses must survive a String→Parse
// round trip unchanged — the property the shrinker's artifact files rely
// on — and the parser must never panic on garbage.
func FuzzScheduleParse(f *testing.F) {
	f.Add("seed 101\n@2s kill acme-be-003\nsettle 3m\n")
	f.Add("@6s fail 10.3.0.5 fail-recv for 10s\n")
	f.Add("@9s partition vlan-101 for 8s\n@11s drop vlan-102 0.35 for 20s\n")
	f.Add("@12s switch-off sw-01 for 8s\n@15s move acme-fe-001 to globex\n")
	f.Add("@20s failover for 30s\n")
	f.Add("# comment\n\nseed -9\nsettle 15s\n")
	f.Add("@0s kill x\n@0s restart x\n")
	f.Add("seed 9223372036854775807\n")
	f.Add("@2562047h47m16.854775807s failover\n")
	f.Add("kill acme-be-00")
	f.Add("fail 10.3.0.5 healthy")
	f.Add("@0s fail 10.3.0.5 fail-send for 3s")
	f.Add("switch-off sw-00 for 5s")
	f.Add("move acme-be-01 to globex")
	f.Add("drop vlan-101 0.5")
	f.Add("surprise web-1 to vlan-102")
	f.Add("failover")
	f.Add("@1s")
	f.Add("seed 3\n@5s restart acme-be-00\nkill acme-be-00\nsettle 1m\n")
	f.Fuzz(func(t *testing.T, text string) {
		if op, err := ParseOp(text); err == nil {
			one := Schedule{Ops: []Op{op}}
			back, err := Parse(one.String())
			if err != nil || len(back.Ops) != 1 || !reflect.DeepEqual(back.Ops[0], op) {
				t.Fatalf("op %+v did not survive rendering (%v):\n%s", op, err, one)
			}
		}
		s, err := Parse(text)
		if err != nil {
			return
		}
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("re-parse of rendered schedule failed: %v\nrendered:\n%s", err, s)
		}
		// String() materializes the default settle; normalize before
		// comparing.
		if s.Settle == 0 {
			s.Settle = DefaultSettle
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed schedule:\n in: %+v\nout: %+v\ntext:\n%s", s, back, s.String())
		}
	})
}
