package ipam

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAllocPrefixSequential(t *testing.T) {
	p := NewPool(mustPrefix(t, "10.0.0.0/8"))
	a := p.MustAllocPrefix(24)
	b := p.MustAllocPrefix(24)
	if a.String() != "10.0.0.0/24" {
		t.Fatalf("first alloc = %v", a)
	}
	if b.String() != "10.0.1.0/24" {
		t.Fatalf("second alloc = %v", b)
	}
}

func TestAllocPrefixDisjoint(t *testing.T) {
	p := NewPool(mustPrefix(t, "192.168.0.0/16"))
	var prefixes []netip.Prefix
	for i := 0; i < 64; i++ {
		prefixes = append(prefixes, p.MustAllocPrefix(26))
	}
	for i := range prefixes {
		for j := i + 1; j < len(prefixes); j++ {
			if prefixes[i].Overlaps(prefixes[j]) {
				t.Fatalf("allocations overlap: %v and %v", prefixes[i], prefixes[j])
			}
		}
		if !mustPrefix(t, "192.168.0.0/16").Contains(prefixes[i].Addr()) {
			t.Fatalf("allocation escaped pool: %v", prefixes[i])
		}
	}
}

func TestAllocPrefixExhaustion(t *testing.T) {
	p := NewPool(mustPrefix(t, "10.0.0.0/30"))
	if _, err := p.AllocPrefix(31); err != nil {
		t.Fatalf("first /31: %v", err)
	}
	if _, err := p.AllocPrefix(31); err != nil {
		t.Fatalf("second /31: %v", err)
	}
	if _, err := p.AllocPrefix(31); err == nil {
		t.Fatal("expected exhaustion error")
	}
}

func TestAllocPrefixErrors(t *testing.T) {
	p := NewPool(mustPrefix(t, "10.0.0.0/16"))
	if _, err := p.AllocPrefix(8); err == nil {
		t.Fatal("allocating /8 out of /16 should fail")
	}
	if _, err := p.AllocPrefix(33); err == nil {
		t.Fatal("allocating /33 from IPv4 should fail")
	}
}

func TestAllocPrefixIPv6(t *testing.T) {
	p := NewPool(mustPrefix(t, "2001:db8::/32"))
	a := p.MustAllocPrefix(56)
	b := p.MustAllocPrefix(56)
	if a.String() != "2001:db8::/56" {
		t.Fatalf("first v6 alloc = %v", a)
	}
	if b.String() != "2001:db8:0:100::/56" {
		t.Fatalf("second v6 alloc = %v", b)
	}
}

func TestHostSeq(t *testing.T) {
	h := Hosts(mustPrefix(t, "10.1.2.0/30"))
	var got []string
	for {
		a := h.Next()
		if !a.IsValid() {
			break
		}
		got = append(got, a.String())
	}
	want := []string{"10.1.2.1", "10.1.2.2", "10.1.2.3"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("host %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestHostSeqRemaining(t *testing.T) {
	h := Hosts(mustPrefix(t, "10.0.0.0/24"))
	if r := h.Remaining(); r != 255 {
		t.Fatalf("fresh /24 remaining = %d, want 255", r)
	}
	h.Next()
	if r := h.Remaining(); r != 254 {
		t.Fatalf("after one draw remaining = %d, want 254", r)
	}
	big := Hosts(mustPrefix(t, "2001:db8::/32"))
	if big.Remaining() == 0 {
		t.Fatal("huge v6 prefix reports zero remaining")
	}
}

func TestHostsStayInPrefix(t *testing.T) {
	pfx := mustPrefix(t, "172.16.5.0/26")
	h := Hosts(pfx)
	for {
		a := h.Next()
		if !a.IsValid() {
			break
		}
		if !pfx.Contains(a) {
			t.Fatalf("host %v escaped %v", a, pfx)
		}
	}
}

func TestAggregateKey(t *testing.T) {
	a := netip.MustParseAddr("203.0.113.77")
	if k := AggregateKey(a); k.String() != "203.0.113.0/24" {
		t.Fatalf("v4 aggregate = %v", k)
	}
	b := netip.MustParseAddr("2001:db8:12:3456::9")
	if k := AggregateKey(b); k.String() != "2001:db8:12:3400::/56" {
		t.Fatalf("v6 aggregate = %v", k)
	}
	m := netip.MustParseAddr("::ffff:198.51.100.9")
	if k := AggregateKey(m); k.String() != "198.51.100.0/24" {
		t.Fatalf("4in6 aggregate = %v", k)
	}
}

func TestCountAggregates(t *testing.T) {
	addrs := []netip.Addr{
		netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("10.0.0.200"), // same /24
		netip.MustParseAddr("10.0.1.1"),   // new /24
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("2001:db8:0:a::1"),   // differs only in the masked 8th byte: same /56
		netip.MustParseAddr("2001:db8:0:100::1"), // differs at byte 6 -> new /56
		{},                                       // invalid, skipped
	}
	v4, v6 := CountAggregates(addrs)
	if v4 != 2 {
		t.Fatalf("v4 aggregates = %d, want 2", v4)
	}
	if v6 != 2 {
		t.Fatalf("v6 aggregates = %d, want 2", v6)
	}
}

func TestSplit(t *testing.T) {
	v4, v6 := Split([]netip.Addr{
		netip.MustParseAddr("1.2.3.4"),
		netip.MustParseAddr("::ffff:5.6.7.8"),
		netip.MustParseAddr("2001:db8::1"),
		{},
	})
	if len(v4) != 2 || len(v6) != 1 {
		t.Fatalf("split sizes: v4=%d v6=%d", len(v4), len(v6))
	}
	if v4[1] != netip.MustParseAddr("5.6.7.8") {
		t.Fatalf("4in6 not unmapped: %v", v4[1])
	}
}

func TestSortAddrsDedup(t *testing.T) {
	in := []netip.Addr{
		netip.MustParseAddr("9.9.9.9"),
		netip.MustParseAddr("1.1.1.1"),
		netip.MustParseAddr("9.9.9.9"),
	}
	out := SortAddrs(in)
	if len(out) != 2 || out[0].String() != "1.1.1.1" || out[1].String() != "9.9.9.9" {
		t.Fatalf("SortAddrs = %v", out)
	}
}

// Property: every address yielded by HostSeq is inside the prefix and
// unique; AggregateKey always contains the address it aggregates.
func TestPropertyAggregateContains(t *testing.T) {
	f := func(b [4]byte) bool {
		a := netip.AddrFrom4(b)
		return AggregateKey(a).Contains(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(b [16]byte) bool {
		a := netip.AddrFrom16(b)
		if a.Is4In6() {
			return AggregateKey(a).Contains(a.Unmap())
		}
		return AggregateKey(a).Contains(a)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPoolAllocationsNested(t *testing.T) {
	f := func(n uint8) bool {
		p := NewPool(netip.MustParsePrefix("10.0.0.0/12"))
		k := int(n%32) + 1
		seen := make(map[netip.Prefix]bool)
		for i := 0; i < k; i++ {
			pfx, err := p.AllocPrefix(24)
			if err != nil {
				return false
			}
			if seen[pfx] {
				return false
			}
			seen[pfx] = true
			if !netip.MustParsePrefix("10.0.0.0/12").Overlaps(pfx) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Remaining reports how many host addresses are still available, capped at
// 1<<62 for very large (IPv6) prefixes.
func (h *HostSeq) Remaining() uint64 {
	span := h.prefix.Addr().BitLen() - h.prefix.Bits()
	if span >= 63 {
		return 1 << 62
	}
	total := uint64(1) << uint(span)
	if h.next >= total {
		return 0
	}
	return total - h.next
}
