package central

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/amg"
	"repro/internal/wire"
)

// TestDecodedMemberListsStayReadOnly: a decoded member list is shared by
// every receiver of the same bytes (see wire.Codec.Members), so nothing a
// receiver does with it may write to it. The list of a decoded Prepare
// goes through every amg operation that derives a view from another and
// through Central's full-report ingest, takeover included; re-encoding it
// afterwards must give the original bytes.
func TestDecodedMemberListsStayReadOnly(t *testing.T) {
	var list []wire.Member
	for d := byte(40); d >= 1; d-- {
		list = append(list, member(1, d, fmt.Sprintf("n%02d", d), d%3 == 0))
	}
	prep := &wire.Prepare{Leader: ip(1, 40), Version: 7, Token: 11, Op: wire.OpJoin, Members: list}
	pkt := wire.Encode(prep)
	msg, err := wire.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	ms := msg.(*wire.Prepare).Members

	g := amg.New(7, ms) // sorted: adopted without a copy
	joined := g.WithJoined(member(1, 41, "n41", false), member(1, 0, "n00", true))
	less := g.Without(ip(1, 40), ip(1, 1), ip(1, 17))
	joined.Diff(less)
	less.Diff(g)
	g.Subgroups(8)
	joined.Subgroups(3)

	f := newFixture(t, nil)
	f.full(ip(1, 40), 7, ms...)
	f.full(ip(1, 40), 8, ms[3:]...)
	f.report(&wire.Report{Leader: ip(1, 39), Version: 9, Full: true, PrevLeader: ip(1, 40), PrevVersion: 8, Members: ms[1:]})
	f.full(ip(1, 39), 10, ms...)
	if groups := f.c.Groups(); len(groups[ip(1, 39)]) != len(ms) {
		t.Fatalf("Central's view after the reports: %v", groups)
	}

	again := wire.Encode(&wire.Prepare{Leader: prep.Leader, Version: prep.Version, Token: prep.Token, Op: prep.Op, Members: ms})
	if !bytes.Equal(again, pkt) {
		t.Fatal("a decoded member list changed while amg and Central used it")
	}
}
