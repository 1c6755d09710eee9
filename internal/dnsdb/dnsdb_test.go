package dnsdb

import (
	"net/netip"
	"testing"
	"time"

	"iotmap/internal/dnsmsg"
)

var (
	t0 = time.Date(2022, 2, 28, 0, 0, 0, 0, time.UTC)
	t1 = t0.Add(24 * time.Hour)
	t2 = t0.Add(48 * time.Hour)
)

func seeded() *DB {
	db := New()
	db.RecordAddr("a1.iot.us-east-1.amazonaws.com", netip.MustParseAddr("52.0.0.1"), t0)
	db.RecordAddr("a1.iot.us-east-1.amazonaws.com", netip.MustParseAddr("52.0.0.1"), t1)
	db.RecordAddr("a2.iot.eu-west-1.amazonaws.com", netip.MustParseAddr("52.0.1.1"), t1)
	db.RecordAddr("mqtt.googleapis.com", netip.MustParseAddr("74.125.0.5"), t0)
	db.RecordAddr("mqtt.googleapis.com", netip.MustParseAddr("2a00:1450::5"), t0)
	db.Record("cdn.shared.example.com", dnsmsg.TypeA, "52.0.0.1", t0)
	db.Record("www.shared.example.com", dnsmsg.TypeA, "52.0.0.1", t2)
	db.Record("alias.amazonaws.com", dnsmsg.TypeCNAME, "a1.iot.us-east-1.amazonaws.com.", t0)
	return db
}

func TestRecordAggregates(t *testing.T) {
	db := seeded()
	obs, err := db.FlexibleSearch(`^a1\.iot\.`, dnsmsg.TypeA, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 {
		t.Fatalf("obs = %d", len(obs))
	}
	o := obs[0]
	if o.Count != 2 || !o.FirstSeen.Equal(t0) || !o.LastSeen.Equal(t1) {
		t.Fatalf("aggregate = %+v", o)
	}
}

func TestFlexibleSearchRegex(t *testing.T) {
	db := seeded()
	// The paper's Amazon regex shape.
	obs, err := db.FlexibleSearch(`(.+)(\.iot\.)([[:alnum:]]+(-[[:alnum:]]+)+)?(\.amazonaws\.com\.$)`, 0, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	names := Names(obs)
	if len(names) != 2 {
		t.Fatalf("names = %v", names)
	}
	addrs := Addrs(obs)
	if len(addrs) != 2 {
		t.Fatalf("addrs = %v", addrs)
	}
}

func TestFlexibleSearchBadPattern(t *testing.T) {
	if _, err := New().FlexibleSearch(`([`, 0, TimeRange{}); err == nil {
		t.Fatal("bad regex accepted")
	}
}

func TestFlexibleSearchTypeFilter(t *testing.T) {
	db := seeded()
	obs, err := db.FlexibleSearch(`googleapis\.com\.$`, dnsmsg.TypeAAAA, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 || obs[0].RData != "2a00:1450::5" {
		t.Fatalf("AAAA filter = %+v", obs)
	}
}

func TestTimeRangeFilter(t *testing.T) {
	db := seeded()
	// Only observations overlapping [t2, ∞): the www.shared record and
	// the aggregated a1 record ends at t1 < t2, so only www matches.
	obs, err := db.FlexibleSearch(`shared\.example\.com\.$`, 0, TimeRange{From: t2})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 || obs[0].RRName != "www.shared.example.com." {
		t.Fatalf("time filter = %+v", obs)
	}
	// Window ending before everything.
	obs, _ = db.FlexibleSearch(`amazonaws\.com\.$`, 0, TimeRange{To: t0.Add(-time.Hour)})
	if len(obs) != 0 {
		t.Fatalf("early window matched %d", len(obs))
	}
}

func TestBasicSearchExactAndWildcard(t *testing.T) {
	db := seeded()
	exact := db.BasicSearch("mqtt.googleapis.com.", 0, TimeRange{})
	if len(exact) != 2 {
		t.Fatalf("exact = %d", len(exact))
	}
	wild := db.BasicSearch("*.amazonaws.com.", dnsmsg.TypeA, TimeRange{})
	names := Names(wild)
	if len(names) != 2 { // a1 and a2; alias is CNAME type
		t.Fatalf("wildcard names = %v", names)
	}
	// The wildcard must not match the bare suffix itself.
	db.RecordAddr("amazonaws.com", netip.MustParseAddr("52.9.9.9"), t0)
	wild = db.BasicSearch("*.amazonaws.com.", dnsmsg.TypeA, TimeRange{})
	for _, o := range wild {
		if o.RRName == "amazonaws.com." {
			t.Fatal("wildcard matched apex")
		}
	}
}

func TestNamesForAddr(t *testing.T) {
	db := seeded()
	names := db.NamesForAddr(netip.MustParseAddr("52.0.0.1"), TimeRange{})
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	// Time-bounded reverse lookup.
	names = db.NamesForAddr(netip.MustParseAddr("52.0.0.1"), TimeRange{From: t2})
	if len(names) != 1 || names[0] != "www.shared.example.com." {
		t.Fatalf("bounded names = %v", names)
	}
	if got := db.NamesForAddr(netip.MustParseAddr("9.9.9.9"), TimeRange{}); len(got) != 0 {
		t.Fatalf("unknown addr names = %v", got)
	}
}

func TestObservationAddr(t *testing.T) {
	o := Observation{RData: "1.2.3.4"}
	if a, ok := o.Addr(); !ok || a != netip.MustParseAddr("1.2.3.4") {
		t.Fatalf("Addr = %v, %v", a, ok)
	}
	o = Observation{RData: "target.example.com."}
	if _, ok := o.Addr(); ok {
		t.Fatal("CNAME rdata parsed as addr")
	}
}

func TestSizeAndDeterministicOrder(t *testing.T) {
	db := seeded()
	if db.Size() != 7 { // 8 sightings, one aggregated pair
		t.Fatalf("Size = %d", db.Size())
	}
	a, _ := db.FlexibleSearch(`\.com\.$`, 0, TimeRange{})
	b, _ := db.FlexibleSearch(`\.com\.$`, 0, TimeRange{})
	if len(a) != len(b) {
		t.Fatal("inconsistent result sizes")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			db.RecordAddr("w.example.org", netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), t0)
		}
	}()
	for i := 0; i < 100; i++ {
		_, _ = db.FlexibleSearch(`example\.org\.$`, 0, TimeRange{})
		db.NamesForAddr(netip.MustParseAddr("10.0.0.1"), TimeRange{})
	}
	<-done
	if db.Size() != 500 {
		t.Fatalf("Size = %d", db.Size())
	}
}

func BenchmarkFlexibleSearch(b *testing.B) {
	db := New()
	for i := 0; i < 5000; i++ {
		db.RecordAddr(
			string(rune('a'+i%26))+"x.iot.eu-central-1.amazonaws.com",
			netip.AddrFrom4([4]byte{52, byte(i >> 8), byte(i), 1}), t0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.FlexibleSearch(`(.+)(\.iot\.)([[:alnum:]]+(-[[:alnum:]]+)+)?(\.amazonaws\.com\.$)`, 0, TimeRange{}); err != nil {
			b.Fatal(err)
		}
	}
}

// FlexibleSearch compiles pattern and runs it as a Flexible Search,
// optionally restricted by rrtype (0 = any) and time range.
func (db *DB) FlexibleSearch(pattern string, typ RRType, tr TimeRange) ([]Observation, error) {
	q, err := CompileQuery(pattern)
	if err != nil {
		return nil, err
	}
	return db.FlexibleSearchQuery(q, typ, tr), nil
}
