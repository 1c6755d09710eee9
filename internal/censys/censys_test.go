package censys

import (
	"net/netip"
	"regexp"
	"testing"
	"time"

	"iotmap/internal/certmodel"
	"iotmap/internal/proto"
)

var day = time.Date(2022, 2, 28, 0, 0, 0, 0, time.UTC)

func spec(names ...string) *certmodel.Spec {
	return &certmodel.Spec{
		SubjectCN: names[0],
		DNSNames:  names,
		NotBefore: day.Add(-24 * time.Hour),
		NotAfter:  day.Add(30 * 24 * time.Hour),
	}
}

func sampleSnapshot() *Snapshot {
	records := []Record{
		{Addr: netip.MustParseAddr("52.0.0.2"), Port: 8883, Protocol: proto.MQTTS, Cert: spec("b.iot.us-east-1.amazonaws.com")},
		{Addr: netip.MustParseAddr("52.0.0.1"), Port: 443, Protocol: proto.HTTPS, Cert: spec("a.iot.us-east-1.amazonaws.com")},
		{Addr: netip.MustParseAddr("52.0.0.1"), Port: 8883, Protocol: proto.MQTTS}, // open, no cert
		{Addr: netip.MustParseAddr("20.0.0.1"), Port: 443, Protocol: proto.HTTPS, Cert: spec("hub.azure-devices.net")},
	}
	return newSnapshot(day, records)
}

func TestSnapshotOrderingAndIndex(t *testing.T) {
	s := sampleSnapshot()
	if s.Len() != 4 {
		t.Fatalf("len = %d", s.Len())
	}
	recs := s.Records()
	for i := 1; i < len(recs); i++ {
		prev, cur := recs[i-1], recs[i]
		if cur.Addr.Less(prev.Addr) {
			t.Fatal("records not sorted by address")
		}
		if cur.Addr == prev.Addr && cur.Port < prev.Port {
			t.Fatal("records not sorted by port within address")
		}
	}
	byAddr := s.ByAddr(netip.MustParseAddr("52.0.0.1"))
	if len(byAddr) != 2 {
		t.Fatalf("ByAddr = %d records", len(byAddr))
	}
	if got := s.ByAddr(netip.MustParseAddr("9.9.9.9")); len(got) != 0 {
		t.Fatal("unknown addr returned records")
	}
}

func TestSearchCerts(t *testing.T) {
	s := sampleSnapshot()
	re := regexp.MustCompile(`(.+)\.iot\.([a-z0-9-]+)\.amazonaws\.com\.$`)
	hits := s.SearchCerts(re)
	if len(hits) != 2 {
		t.Fatalf("hits = %d", len(hits))
	}
	addrs := Addrs(hits)
	if len(addrs) != 2 || addrs[0] != netip.MustParseAddr("52.0.0.1") {
		t.Fatalf("addrs = %v", addrs)
	}
}

func TestSearchCertsSkipsExpired(t *testing.T) {
	expired := spec("x.iot.us-east-1.amazonaws.com")
	expired.NotAfter = day.Add(-time.Hour)
	s := newSnapshot(day, []Record{
		{Addr: netip.MustParseAddr("52.0.0.9"), Port: 443, Protocol: proto.HTTPS, Cert: expired},
	})
	re := regexp.MustCompile(`amazonaws\.com\.$`)
	if hits := s.SearchCerts(re); len(hits) != 0 {
		t.Fatalf("expired cert matched: %d", len(hits))
	}
}

func TestServiceDays(t *testing.T) {
	svc := NewService()
	d2 := day.AddDate(0, 0, 1)
	svc.Put(newSnapshot(d2, nil))
	svc.Put(sampleSnapshot())
	days := svc.Days()
	if len(days) != 2 || !days[0].Equal(day) {
		t.Fatalf("days = %v", days)
	}
	got, err := svc.Get(day.Add(13 * time.Hour)) // same UTC day
	if err != nil || got.Len() != 4 {
		t.Fatalf("Get same-day: %v", err)
	}
	if _, err := svc.Get(day.AddDate(0, 0, 9)); err == nil {
		t.Fatal("missing day returned a snapshot")
	}
}

func TestRecordEndpoint(t *testing.T) {
	r := Record{Addr: netip.MustParseAddr("1.2.3.4"), Port: 8883}
	if r.Endpoint().String() != "1.2.3.4:8883" {
		t.Fatalf("endpoint = %v", r.Endpoint())
	}
}

// newSnapshot builds a standalone snapshot for date from records.
func newSnapshot(date time.Time, records []Record) *Snapshot {
	return NewCatalog(records).Snapshot(date, nil)
}
