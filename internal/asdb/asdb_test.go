package asdb

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestLookupLongestMatch(t *testing.T) {
	tbl := NewTable()
	must(t, tbl.Announce(netip.MustParsePrefix("10.0.0.0/8"), 100))
	must(t, tbl.Announce(netip.MustParsePrefix("10.1.0.0/16"), 200))
	must(t, tbl.Announce(netip.MustParsePrefix("10.1.2.0/24"), 300))

	cases := []struct {
		addr string
		want ASN
	}{
		{"10.9.9.9", 100},
		{"10.1.9.9", 200},
		{"10.1.2.9", 300},
	}
	for _, c := range cases {
		ann, ok := tbl.Lookup(netip.MustParseAddr(c.addr))
		if !ok || ann.Origin != c.want {
			t.Fatalf("Lookup(%s) = %v/%v, want origin %d", c.addr, ann, ok, c.want)
		}
	}
	if _, ok := tbl.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Fatal("lookup outside table matched")
	}
}

func TestLookupIPv6(t *testing.T) {
	tbl := NewTable()
	must(t, tbl.Announce(netip.MustParsePrefix("2001:db8::/32"), 64500))
	must(t, tbl.Announce(netip.MustParsePrefix("2001:db8:1::/48"), 64501))
	ann, ok := tbl.Lookup(netip.MustParseAddr("2001:db8:1::42"))
	if !ok || ann.Origin != 64501 {
		t.Fatalf("v6 longest match = %v/%v", ann, ok)
	}
	ann, ok = tbl.Lookup(netip.MustParseAddr("2001:db8:2::42"))
	if !ok || ann.Origin != 64500 {
		t.Fatalf("v6 covering match = %v/%v", ann, ok)
	}
}

func TestLookup4In6(t *testing.T) {
	tbl := NewTable()
	must(t, tbl.Announce(netip.MustParsePrefix("203.0.113.0/24"), 7))
	ann, ok := tbl.Lookup(netip.MustParseAddr("::ffff:203.0.113.9"))
	if !ok || ann.Origin != 7 {
		t.Fatalf("4-in-6 lookup = %v/%v", ann, ok)
	}
}

func TestAnnounceReplacesOrigin(t *testing.T) {
	tbl := NewTable()
	must(t, tbl.Announce(netip.MustParsePrefix("10.0.0.0/8"), 1))
	must(t, tbl.Announce(netip.MustParsePrefix("10.0.0.0/8"), 2))
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d after re-announce", tbl.Len())
	}
	if asn, _ := tbl.Origin(netip.MustParseAddr("10.0.0.1")); asn != 2 {
		t.Fatalf("origin = %d, want 2", asn)
	}
}

func TestInvalidInputs(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Announce(netip.Prefix{}, 1); err == nil {
		t.Fatal("invalid prefix accepted")
	}
	if _, ok := tbl.Lookup(netip.Addr{}); ok {
		t.Fatal("invalid addr matched")
	}
}

func TestASRegistry(t *testing.T) {
	tbl := NewTable()
	tbl.RegisterAS(AS{Number: 16509, Name: "AMAZON-02", Org: "Amazon"})
	tbl.RegisterAS(AS{Number: 15169, Name: "GOOGLE", Org: "Google"})
	as, ok := tbl.LookupAS(16509)
	if !ok || as.Org != "Amazon" {
		t.Fatalf("LookupAS = %v/%v", as, ok)
	}
	if _, ok := tbl.LookupAS(1); ok {
		t.Fatal("unknown AS resolved")
	}
	all := tbl.ASes()
	if len(all) != 2 || all[0].Number != 15169 {
		t.Fatalf("ASes() = %v", all)
	}
	if ASN(65000).String() != "AS65000" {
		t.Fatal("ASN.String format")
	}
}

// Property: trie lookup agrees with the naive linear matcher on random
// tables and probes.
func TestPropertyTrieMatchesLinear(t *testing.T) {
	f := func(seeds []uint32, probes []uint32) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 64 {
			seeds = seeds[:64]
		}
		if len(probes) > 64 {
			probes = probes[:64]
		}
		tbl := NewTable()
		var anns []Announcement
		for i, s := range seeds {
			var b [4]byte
			b[0] = byte(s >> 24)
			b[1] = byte(s >> 16)
			b[2] = byte(s >> 8)
			b[3] = byte(s)
			bits := 8 + int(s%25) // /8../32
			pfx := netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
			origin := ASN(i + 1)
			if err := tbl.Announce(pfx, origin); err != nil {
				return false
			}
			// Mirror replacement semantics: drop earlier identical prefix.
			replaced := false
			for j := range anns {
				if anns[j].Prefix == pfx {
					anns[j].Origin = origin
					replaced = true
					break
				}
			}
			if !replaced {
				anns = append(anns, Announcement{Prefix: pfx, Origin: origin})
			}
		}
		lin := newLinearTable(anns)
		for _, p := range probes {
			var b [4]byte
			b[0] = byte(p >> 24)
			b[1] = byte(p >> 16)
			b[2] = byte(p >> 8)
			b[3] = byte(p)
			addr := netip.AddrFrom4(b)
			ta, tok := tbl.Lookup(addr)
			la, lok := lin.Lookup(addr)
			if tok != lok {
				return false
			}
			if tok && (ta.Prefix != la.Prefix || ta.Origin != la.Origin) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	tbl := NewTable()
	for i := 0; i < 1024; i++ {
		a := netip.AddrFrom4([4]byte{byte(i >> 2), byte(i << 6), 0, 0})
		_ = tbl.Announce(netip.PrefixFrom(a, 10+i%15).Masked(), ASN(i))
	}
	addr := netip.MustParseAddr("63.64.1.2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(addr)
	}
}

func BenchmarkLinearLookup(b *testing.B) {
	var anns []Announcement
	for i := 0; i < 1024; i++ {
		a := netip.AddrFrom4([4]byte{byte(i >> 2), byte(i << 6), 0, 0})
		anns = append(anns, Announcement{Prefix: netip.PrefixFrom(a, 10+i%15).Masked(), Origin: ASN(i)})
	}
	lin := newLinearTable(anns)
	addr := netip.MustParseAddr("63.64.1.2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lin.Lookup(addr)
	}
}

// linearTable is the naive O(n) matcher the trie is checked and
// benchmarked against.
type linearTable struct {
	anns []Announcement
}

func newLinearTable(anns []Announcement) *linearTable {
	cp := make([]Announcement, len(anns))
	copy(cp, anns)
	return &linearTable{anns: cp}
}

// Lookup scans every announcement for the longest match.
func (l *linearTable) Lookup(addr netip.Addr) (Announcement, bool) {
	best := Announcement{}
	found := false
	for _, ann := range l.anns {
		if ann.Prefix.Contains(addr) {
			if !found || ann.Prefix.Bits() > best.Prefix.Bits() {
				best = ann
				found = true
			}
		}
	}
	return best, found
}
