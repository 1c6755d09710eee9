package dnszone

import (
	"net/netip"
	"testing"

	"iotmap/internal/dnsmsg"
)

func newTestStore() *Store {
	s := NewStore()
	s.AddZone("amazonaws.com", dnsmsg.SOAData{
		MName: "ns1.amazonaws.com.", RName: "hostmaster.amazonaws.com.",
		Serial: 1, Minimum: 300,
	})
	s.AddAddr(DefaultView, "gw1.iot.us-east-1.amazonaws.com", netip.MustParseAddr("52.0.0.10"), 60)
	s.AddAddr(DefaultView, "gw1.iot.us-east-1.amazonaws.com", netip.MustParseAddr("52.0.0.11"), 60)
	s.AddAddr(DefaultView, "gw1.iot.us-east-1.amazonaws.com", netip.MustParseAddr("2a05:d000::10"), 60)
	s.AddCNAME(DefaultView, "device7.iot.us-east-1.amazonaws.com", "gw1.iot.us-east-1.amazonaws.com", 60)
	// Geo-view: EU resolvers get a different gateway.
	s.AddAddr("eu", "mqtt.googleapis.com", netip.MustParseAddr("74.125.1.1"), 300)
	s.AddAddr("us", "mqtt.googleapis.com", netip.MustParseAddr("74.125.2.1"), 300)
	s.AddAddr(DefaultView, "mqtt.googleapis.com", netip.MustParseAddr("74.125.9.9"), 300)
	return s
}

func TestStoreLookupDirect(t *testing.T) {
	s := newTestStore()
	rrs, rc := s.Lookup(DefaultView, "GW1.iot.us-east-1.amazonaws.com.", dnsmsg.TypeA)
	if rc != dnsmsg.RCodeSuccess || len(rrs) != 2 {
		t.Fatalf("lookup = %v rrs=%d", rc, len(rrs))
	}
	rrs, rc = s.Lookup(DefaultView, "gw1.iot.us-east-1.amazonaws.com", dnsmsg.TypeAAAA)
	if rc != dnsmsg.RCodeSuccess || len(rrs) != 1 {
		t.Fatalf("AAAA lookup = %v rrs=%d", rc, len(rrs))
	}
}

func TestStoreLookupCNAMEChain(t *testing.T) {
	s := newTestStore()
	rrs, rc := s.Lookup(DefaultView, "device7.iot.us-east-1.amazonaws.com", dnsmsg.TypeA)
	if rc != dnsmsg.RCodeSuccess {
		t.Fatalf("rc = %v", rc)
	}
	if len(rrs) != 3 { // CNAME + 2 A
		t.Fatalf("chain answers = %d, want 3", len(rrs))
	}
	if rrs[0].Type != dnsmsg.TypeCNAME {
		t.Fatalf("first answer type = %v", rrs[0].Type)
	}
}

func TestStoreCNAMELoop(t *testing.T) {
	s := NewStore()
	s.AddCNAME(DefaultView, "a.example.com", "b.example.com", 60)
	s.AddCNAME(DefaultView, "b.example.com", "a.example.com", 60)
	_, rc := s.Lookup(DefaultView, "a.example.com", dnsmsg.TypeA)
	if rc != dnsmsg.RCodeServFail {
		t.Fatalf("loop rc = %v, want SERVFAIL", rc)
	}
}

func TestStoreNXDomainVsNoData(t *testing.T) {
	s := newTestStore()
	_, rc := s.Lookup(DefaultView, "missing.amazonaws.com", dnsmsg.TypeA)
	if rc != dnsmsg.RCodeNXDomain {
		t.Fatalf("missing name rc = %v", rc)
	}
	rrs, rc := s.Lookup(DefaultView, "gw1.iot.us-east-1.amazonaws.com", dnsmsg.TypeTXT)
	if rc != dnsmsg.RCodeSuccess || len(rrs) != 0 {
		t.Fatalf("NODATA: rc=%v rrs=%d", rc, len(rrs))
	}
}

func TestStoreViews(t *testing.T) {
	s := newTestStore()
	eu, _ := s.Lookup("eu", "mqtt.googleapis.com", dnsmsg.TypeA)
	us, _ := s.Lookup("us", "mqtt.googleapis.com", dnsmsg.TypeA)
	def, _ := s.Lookup("asia", "mqtt.googleapis.com", dnsmsg.TypeA)
	if len(eu) != 1 || eu[0].Addr.String() != "74.125.1.1" {
		t.Fatalf("eu view = %v", eu)
	}
	if len(us) != 1 || us[0].Addr.String() != "74.125.2.1" {
		t.Fatalf("us view = %v", us)
	}
	if len(def) != 1 || def[0].Addr.String() != "74.125.9.9" {
		t.Fatalf("fallback view = %v", def)
	}
}

func TestStoreRemoveName(t *testing.T) {
	s := newTestStore()
	s.RemoveName("gw1.iot.us-east-1.amazonaws.com")
	_, rc := s.Lookup(DefaultView, "gw1.iot.us-east-1.amazonaws.com", dnsmsg.TypeA)
	if rc != dnsmsg.RCodeNXDomain {
		t.Fatalf("after remove rc = %v", rc)
	}
}

func TestAuthority(t *testing.T) {
	s := newTestStore()
	apex, ok := s.Authority("deep.sub.iot.us-east-1.amazonaws.com")
	if !ok || apex != "amazonaws.com." {
		t.Fatalf("authority = %q, %v", apex, ok)
	}
	if _, ok := s.Authority("example.org"); ok {
		t.Fatal("authority for foreign name")
	}
}

func TestServerHandleWire(t *testing.T) {
	s := newTestStore()
	srv := NewLocalServer(s, DefaultView)

	q := &dnsmsg.Message{
		Header:    dnsmsg.Header{ID: 42, RecursionDesired: true},
		Questions: []dnsmsg.Question{{Name: "gw1.iot.us-east-1.amazonaws.com", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN}},
	}
	wire, _ := q.Pack()
	resp := srv.HandleWire(wire)
	if resp == nil {
		t.Fatal("no response")
	}
	m, err := dnsmsg.Unpack(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.ID != 42 || !m.Header.Response || !m.Header.Authoritative {
		t.Fatalf("header = %+v", m.Header)
	}
	if len(m.Answers) != 2 {
		t.Fatalf("answers = %d", len(m.Answers))
	}
}

func TestServerNXDomainCarriesSOA(t *testing.T) {
	s := newTestStore()
	srv := NewLocalServer(s, DefaultView)
	q := &dnsmsg.Message{
		Header:    dnsmsg.Header{ID: 1},
		Questions: []dnsmsg.Question{{Name: "nope.amazonaws.com", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN}},
	}
	wire, _ := q.Pack()
	m, err := dnsmsg.Unpack(srv.HandleWire(wire))
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.RCode != dnsmsg.RCodeNXDomain {
		t.Fatalf("rcode = %v", m.Header.RCode)
	}
	if len(m.Authority) != 1 || m.Authority[0].Type != dnsmsg.TypeSOA {
		t.Fatalf("authority = %+v", m.Authority)
	}
}

func TestServerRejectsNonIN(t *testing.T) {
	s := newTestStore()
	srv := NewLocalServer(s, DefaultView)
	q := &dnsmsg.Message{
		Header:    dnsmsg.Header{ID: 5},
		Questions: []dnsmsg.Question{{Name: "gw1.iot.us-east-1.amazonaws.com", Type: dnsmsg.TypeA, Class: 3}},
	}
	wire, _ := q.Pack()
	m, err := dnsmsg.Unpack(srv.HandleWire(wire))
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.RCode != dnsmsg.RCodeNotImp {
		t.Fatalf("rcode = %v", m.Header.RCode)
	}
}

func TestServerDropsGarbageAndResponses(t *testing.T) {
	s := newTestStore()
	srv := NewLocalServer(s, DefaultView)
	if resp := srv.HandleWire([]byte{1, 2, 3}); resp != nil {
		t.Fatal("garbage produced a response")
	}
	q := &dnsmsg.Message{Header: dnsmsg.Header{ID: 1, Response: true}}
	wire, _ := q.Pack()
	if resp := srv.HandleWire(wire); resp == nil {
		t.Skip("responses answered with FORMERR or dropped; drop also acceptable")
	}
}

func TestLocalServerServesWithoutSocket(t *testing.T) {
	s := newTestStore()
	srv := NewLocalServer(s, DefaultView)
	q := &dnsmsg.Message{
		Header:    dnsmsg.Header{ID: 77},
		Questions: []dnsmsg.Question{{Name: "gw1.iot.us-east-1.amazonaws.com", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN}},
	}
	wire, _ := q.Pack()
	resp := srv.HandleWire(wire)
	if resp == nil {
		t.Fatal("local server did not answer")
	}
	m, err := dnsmsg.Unpack(resp)
	if err != nil || len(m.Answers) != 2 {
		t.Fatalf("local answer: %v, %d answers", err, len(m.Answers))
	}
}

// AddCNAME registers a CNAME from name to target under view.
func (s *Store) AddCNAME(view, name, target string, ttl uint32) {
	s.AddRR(view, dnsmsg.RR{
		Name: name, Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassIN, TTL: ttl,
		Target: dnsmsg.CanonicalName(target),
	})
}
