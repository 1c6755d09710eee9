package dnsmsg

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalName(t *testing.T) {
	cases := map[string]string{
		"":                  ".",
		".":                 ".",
		"Example.COM":       "example.com.",
		"example.com.":      "example.com.",
		"  a.B.c  ":         "a.b.c.",
		"iot.us-east-1.aws": "iot.us-east-1.aws.",
	}
	for in, want := range cases {
		if got := CanonicalName(in); got != want {
			t.Errorf("CanonicalName(%q) = %q, want %q", in, got, want)
		}
	}
}

func sampleMessage() *Message {
	return &Message{
		Header: Header{
			ID:               0xBEEF,
			Response:         true,
			Authoritative:    true,
			RecursionDesired: true,
			RCode:            RCodeSuccess,
		},
		Questions: []Question{{Name: "a1b2.iot.eu-central-1.amazonaws.com.", Type: TypeA, Class: ClassIN}},
		Answers: []RR{
			{Name: "a1b2.iot.eu-central-1.amazonaws.com.", Type: TypeCNAME, Class: ClassIN, TTL: 60,
				Target: "gw7.iot.eu-central-1.amazonaws.com."},
			{Name: "gw7.iot.eu-central-1.amazonaws.com.", Type: TypeA, Class: ClassIN, TTL: 60,
				Addr: netip.MustParseAddr("52.1.2.3")},
			{Name: "gw7.iot.eu-central-1.amazonaws.com.", Type: TypeAAAA, Class: ClassIN, TTL: 60,
				Addr: netip.MustParseAddr("2a05:d000::17")},
		},
		Authority: []RR{
			{Name: "amazonaws.com.", Type: TypeSOA, Class: ClassIN, TTL: 900, SOA: &SOAData{
				MName: "ns1.amazonaws.com.", RName: "hostmaster.amazonaws.com.",
				Serial: 2022022801, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 86400,
			}},
		},
		Additional: []RR{
			{Name: "amazonaws.com.", Type: TypeTXT, Class: ClassIN, TTL: 300, TXT: []string{"v=iot1", "study"}},
		},
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != m.Header {
		t.Fatalf("header mismatch:\n got %+v\nwant %+v", got.Header, m.Header)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != m.Questions[0].Name {
		t.Fatalf("question mismatch: %+v", got.Questions)
	}
	if len(got.Answers) != 3 {
		t.Fatalf("answers = %d", len(got.Answers))
	}
	if got.Answers[0].Target != "gw7.iot.eu-central-1.amazonaws.com." {
		t.Fatalf("cname target = %q", got.Answers[0].Target)
	}
	if got.Answers[1].Addr != netip.MustParseAddr("52.1.2.3") {
		t.Fatalf("A addr = %v", got.Answers[1].Addr)
	}
	if got.Answers[2].Addr != netip.MustParseAddr("2a05:d000::17") {
		t.Fatalf("AAAA addr = %v", got.Answers[2].Addr)
	}
	soa := got.Authority[0].SOA
	if soa == nil || soa.Serial != 2022022801 || soa.MName != "ns1.amazonaws.com." {
		t.Fatalf("SOA = %+v", soa)
	}
	txt := got.Additional[0].TXT
	if len(txt) != 2 || txt[0] != "v=iot1" {
		t.Fatalf("TXT = %v", txt)
	}
	// Every record keeps its own owner name, whether or not it repeats
	// the name decoded before it.
	for _, sec := range [][2][]RR{{got.Answers, m.Answers}, {got.Authority, m.Authority}, {got.Additional, m.Additional}} {
		if len(sec[0]) != len(sec[1]) {
			t.Fatalf("section of %d records, want %d", len(sec[0]), len(sec[1]))
		}
		for i := range sec[1] {
			if sec[0][i].Name != sec[1][i].Name {
				t.Fatalf("record %d named %q, want %q", i, sec[0][i].Name, sec[1][i].Name)
			}
		}
	}
}

func TestCompressionShrinksMessages(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode with compression disabled (nil suffix map) to get the
	// exact uncompressed size.
	raw := make([]byte, 12)
	for _, q := range m.Questions {
		raw, err = appendName(raw, q.Name, nil)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, 0, 0, 0, 0)
	}
	for _, rr := range append(append(append([]RR{}, m.Answers...), m.Authority...), m.Additional...) {
		raw, err = appendRR(raw, rr, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(wire) >= len(raw) {
		t.Fatalf("no compression benefit: wire=%d uncompressed=%d", len(wire), len(raw))
	}
	// And the compressed form must contain at least one pointer.
	if !bytes.ContainsAny(wire, "\xc0") {
		t.Fatal("no compression pointer emitted")
	}
}

func TestCaseInsensitiveDecode(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 1},
		Questions: []Question{{Name: "MiXeD.ExAmPle.COM", Type: TypeA, Class: ClassIN}},
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "mixed.example.com." {
		t.Fatalf("name = %q", got.Questions[0].Name)
	}
}

func TestRootName(t *testing.T) {
	m := &Message{Header: Header{ID: 2}, Questions: []Question{{Name: ".", Type: TypeNS, Class: ClassIN}}}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "." {
		t.Fatalf("root decoded as %q", got.Questions[0].Name)
	}
}

func TestEncodeErrors(t *testing.T) {
	longLabel := strings.Repeat("a", 64) + ".com"
	cases := []*Message{
		{Questions: []Question{{Name: longLabel, Type: TypeA, Class: ClassIN}}},
		{Answers: []RR{{Name: "x.com", Type: TypeA, Class: ClassIN, Addr: netip.MustParseAddr("2001:db8::1")}}},
		{Answers: []RR{{Name: "x.com", Type: TypeAAAA, Class: ClassIN, Addr: netip.MustParseAddr("1.2.3.4")}}},
		{Answers: []RR{{Name: "x.com", Type: TypeSOA, Class: ClassIN}}},
		{Answers: []RR{{Name: "x.com", Type: TypeTXT, Class: ClassIN, TXT: []string{strings.Repeat("x", 256)}}}},
		{Answers: []RR{{Name: "x..com", Type: TypeA, Class: ClassIN, Addr: netip.MustParseAddr("1.2.3.4")}}},
		{Questions: []Question{{Name: strings.Repeat("abcdefg.", 40), Type: TypeA, Class: ClassIN}}},
	}
	for i, m := range cases {
		if _, err := m.Pack(); err == nil {
			t.Errorf("case %d: Pack accepted invalid message", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	// Short header.
	if _, err := Unpack([]byte{0, 1, 2}); err == nil {
		t.Fatal("short message accepted")
	}
	// Valid message with trailing garbage.
	m := &Message{Header: Header{ID: 7}, Questions: []Question{{Name: "a.b", Type: TypeA, Class: ClassIN}}}
	wire, _ := m.Pack()
	if _, err := Unpack(append(wire, 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Compression pointer pointing forward (loop risk).
	bad := make([]byte, 12)
	bad[5] = 1 // one question
	bad = append(bad, 0xC0, 0x0C)
	bad = append(bad, 0, 1, 0, 1)
	if _, err := Unpack(bad); err == nil {
		t.Fatal("self-pointer accepted")
	}
	// Label with reserved bits set.
	bad2 := make([]byte, 12)
	bad2[5] = 1
	bad2 = append(bad2, 0x80, 'a')
	bad2 = append(bad2, 0, 1, 0, 1)
	if _, err := Unpack(bad2); err == nil {
		t.Fatal("reserved label bits accepted")
	}
	// Truncated A rdata.
	m3 := &Message{Header: Header{ID: 9}, Answers: []RR{{Name: "x.y", Type: TypeA, Class: ClassIN, Addr: netip.MustParseAddr("1.2.3.4")}}}
	wire3, _ := m3.Pack()
	if _, err := Unpack(wire3[:len(wire3)-2]); err == nil {
		t.Fatal("truncated rdata accepted")
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	f := func(id uint16, resp, aa, tc, rd, ra bool, op, rc uint8) bool {
		m := &Message{Header: Header{
			ID: id, Response: resp, Authoritative: aa, Truncated: tc,
			RecursionDesired: rd, RecursionAvailable: ra,
			Opcode: op & 0xF, RCode: RCode(rc & 0xF),
		}}
		wire, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			return false
		}
		return got.Header == m.Header
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: pack→unpack is the identity on well-formed A/AAAA answer sets.
func TestPropertyAddrRoundTrip(t *testing.T) {
	f := func(v4 [4]byte, v6 [16]byte, n uint8) bool {
		a6 := netip.AddrFrom16(v6)
		if a6.Is4In6() {
			return true // AAAA cannot carry a mapped v4; encoder rejects by design
		}
		m := &Message{
			Header: Header{ID: uint16(n)},
			Answers: []RR{
				{Name: "host.example.org", Type: TypeA, Class: ClassIN, TTL: uint32(n), Addr: netip.AddrFrom4(v4)},
				{Name: "host.example.org", Type: TypeAAAA, Class: ClassIN, TTL: uint32(n), Addr: a6},
			},
		}
		wire, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			return false
		}
		return got.Answers[0].Addr == netip.AddrFrom4(v4) && got.Answers[1].Addr == a6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on arbitrary input.
func TestPropertyDecoderRobust(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Unpack(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeAndRCodeStrings(t *testing.T) {
	if TypeA.String() != "A" || TypeAAAA.String() != "AAAA" || Type(999).String() != "TYPE999" {
		t.Fatal("Type.String mismatch")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(15).String() != "RCODE15" {
		t.Fatal("RCode.String mismatch")
	}
}

func BenchmarkPack(b *testing.B) {
	m := sampleMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpack(b *testing.B) {
	wire, err := sampleMessage().Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}
