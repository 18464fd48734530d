package wire

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/transport"
)

// testMembers returns n members in wire order (strictly descending IP),
// named the way a zoned farm names its nodes.
func testMembers(n int) []Member {
	ms := make([]Member, n)
	for i := range ms {
		ms[i] = Member{
			IP:    transport.IP(0x0A000000 + n - i),
			Node:  fmt.Sprintf("z%03d-node-%03d", (n-i)/100, (n-i)%100),
			Index: byte(i % 2),
			Admin: i%2 == 0,
		}
	}
	return ms
}

// decodeWith decodes pkt the way Decode does, but through the given codec
// instead of a pooled one, so a test controls what its slots hold.
func decodeWith(c *Codec, pkt []byte) (Message, error) {
	t, ok := Peek(pkt)
	if !ok {
		return Decode(pkt) // a bad header never reaches a codec
	}
	m := types[t].new()
	c.buf, c.pos, c.short = pkt, 2, false
	m.walk(c)
	err := c.Done()
	c.buf = nil
	return m, err
}

// TestInternTableHoldsAZonedFarm: a pooled codec sees every node name of
// its shard, and 10 000 names — the node count of a 20 000-adapter farm —
// must all come back as the copies the first pass stored. A table bounded
// by entry count (4 096) used to stop interning partway and hand out a
// fresh string for every later decode.
func TestInternTableHoldsAZonedFarm(t *testing.T) {
	c := decPool.New().(*Codec)
	names := make([][]byte, 0, 10_000)
	for z := 0; z < 100; z++ {
		for n := 0; n < 100; n++ {
			names = append(names, []byte(fmt.Sprintf("z%03d-node-%03d", z, n)))
		}
	}
	first := make([]*byte, len(names))
	for i, b := range names {
		first[i] = unsafe.StringData(c.internBytes(b))
	}
	for i, b := range names {
		if got := unsafe.StringData(c.internBytes(b)); got != first[i] {
			t.Fatalf("name %d (%s): second pass returned a new copy", i, b)
		}
	}
}

// TestInternTableBoundedByBytes: hostile input of long distinct strings
// fills the table to its byte budget and no further; past it the strings
// still decode, just without interning.
func TestInternTableBoundedByBytes(t *testing.T) {
	c := decPool.New().(*Codec)
	long := []byte(strings.Repeat("x", 60_000))
	for i := 0; i < 200; i++ {
		copy(long, fmt.Sprintf("%04d", i))
		if s := c.internBytes(long); s != string(long) {
			t.Fatalf("string %d decoded wrong", i)
		}
	}
	if c.internCost > internBudget || len(c.intern) >= 200 {
		t.Errorf("table holds %d entries costing %d, budget %d", len(c.intern), c.internCost, internBudget)
	}
}

// TestMemberListSlotsDecodeLikeACodecWithout holds a warm codec — one whose
// slot holds a list — to a cold one on packets that begin like the cached
// list and then differ: in its last byte, cut short, followed by trailing
// bytes. Each must miss, or fail, exactly as the cold decode does; the
// unchanged packet must hit. The 70 000-member list has an escaped count
// (0xFFFF, then a u32).
func TestMemberListSlotsDecodeLikeACodecWithout(t *testing.T) {
	for _, n := range []int{500, 70_000} {
		pkt := Encode(&Prepare{Leader: 7, Version: 2, Token: 5, Op: OpJoin, Members: testMembers(n)})
		if escaped := pkt[23] == 0xff && pkt[24] == 0xff; escaped != (n >= 0xffff) {
			t.Fatalf("n=%d: escaped count %v", n, escaped)
		}
		lastByte := slices.Clone(pkt)
		lastByte[len(lastByte)-1] ^= 1
		variants := []struct {
			name string
			pkt  []byte
			hit  bool
		}{
			{"same bytes", pkt, true},
			{"last byte differs", lastByte, false},
			{"truncated", pkt[:len(pkt)-1], false},
			{"count cut short", pkt[:24], false},
			{"trailing bytes", append(slices.Clone(pkt), 0), true},
		}
		for _, v := range variants {
			warm := decPool.New().(*Codec)
			cached, err := decodeWith(warm, pkt)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			got, gotErr := decodeWith(warm, v.pkt)
			want, wantErr := decodeWith(decPool.New().(*Codec), v.pkt)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("n=%d, %s: warm codec says %v, cold %v", n, v.name, gotErr, wantErr)
				continue
			}
			if wantErr != nil {
				if !errors.Is(gotErr, ErrShort) && !errors.Is(gotErr, ErrTrailing) {
					t.Errorf("n=%d, %s: unexpected error %v", n, v.name, gotErr)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d, %s: warm and cold decodes differ", n, v.name)
			}
			shared := &got.(*Prepare).Members[0] == &cached.(*Prepare).Members[0]
			if shared != v.hit {
				t.Errorf("n=%d, %s: shared the cached list = %v, want %v", n, v.name, shared, v.hit)
			}
		}
	}
}

// TestJournalCodecsNeverShare: a codec from NewDecoder has no slots, so
// two decodes of one list through two of them are two lists.
func TestJournalCodecsNeverShare(t *testing.T) {
	long := Encode(&Commit{Leader: 7, Version: 2, Members: testMembers(50)})
	var x, y Commit
	for _, m := range []*Commit{&x, &y} {
		d := NewDecoder(long[2:])
		m.walk(d)
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
	}
	if &x.Members[0] == &y.Members[0] {
		t.Error("NewDecoder's codecs shared a list")
	}
}

// TestSharedListsAcrossGoroutines: pooled codecs, and the lists their
// slots hold, move between goroutines through sync.Pool, as they do
// between the shards of a sharded run. Goroutines decoding the same few
// lists at once must each read the encoded values; run it with -race.
func TestSharedListsAcrossGoroutines(t *testing.T) {
	var pkts [][]byte
	var want []Message
	for n := 10; n < 10+2*listSlots; n++ {
		m := &Commit{Leader: transport.IP(n), Version: uint64(n), Members: testMembers(n)}
		pkts, want = append(pkts, Encode(m)), append(want, m)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (i*7 + g) % len(pkts)
				m, err := Decode(pkts[k])
				if err != nil || !reflect.DeepEqual(m, want[k]) {
					t.Errorf("goroutine %d, list %d: %v", g, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
