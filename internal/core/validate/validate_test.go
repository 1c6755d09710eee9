package validate

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"iotmap/internal/core/patterns"
	"iotmap/internal/dnsdb"
	"iotmap/internal/world"
)

func t0() time.Time { return time.Date(2022, 2, 28, 0, 0, 0, 0, time.UTC) }

// recordAddr records a sighting of name→addr under the rdata
// dnsdb.AddrRData formats.
func recordAddr(db *dnsdb.DB, name string, addr netip.Addr, t time.Time) {
	typ, rdata := dnsdb.AddrRData(addr)
	db.Record(name, typ, rdata, t)
}

func TestFilterShared(t *testing.T) {
	db := dnsdb.New()
	dedicated := netip.MustParseAddr("52.0.0.1")
	shared := netip.MustParseAddr("52.0.0.2")
	recordAddr(db, "a1.iot.us-east-1.amazonaws.com", dedicated, t0())
	recordAddr(db, "a2.iot.us-east-1.amazonaws.com", shared, t0())
	for i := 0; i < 10; i++ {
		recordAddr(db, "www.site"+string(rune('a'+i))+".example", shared, t0())
	}
	// One stray vanity name on the dedicated IP must not flip it.
	recordAddr(db, "vanity.example.org", dedicated, t0())

	ded, sh, detail := FilterShared(
		[]netip.Addr{dedicated, shared}, patterns.All(), db, dnsdb.TimeRange{}, DefaultSharedThreshold)
	if len(ded) != 1 || ded[0] != dedicated {
		t.Fatalf("dedicated = %v", ded)
	}
	if len(sh) != 1 || sh[0] != shared {
		t.Fatalf("shared = %v", sh)
	}
	for _, c := range detail {
		if c.Addr == shared && c.NonIoTNames < 10 {
			t.Fatalf("shared count = %d", c.NonIoTNames)
		}
		if c.Addr == dedicated && c.NonIoTNames != 1 {
			t.Fatalf("dedicated count = %d", c.NonIoTNames)
		}
	}
}

// filterSharedReference is FilterShared as it was before the per-name
// memo: every pattern tried against every (address, name) pair. It is
// the oracle FilterShared must equal.
func filterSharedReference(addrs []netip.Addr, allPatterns []*patterns.Pattern, pdns *dnsdb.DB, tr dnsdb.TimeRange, threshold int) (dedicated []netip.Addr, shared []netip.Addr, detail []Classification) {
	if threshold <= 0 {
		threshold = DefaultSharedThreshold
	}
	for _, a := range addrs {
		names := pdns.NamesForAddr(a, tr)
		nonIoT := 0
		for _, n := range names {
			matched := false
			for _, p := range allPatterns {
				if p.MatchFQDN(n) {
					matched = true
					break
				}
			}
			if !matched {
				nonIoT++
			}
		}
		c := Classification{Addr: a, NonIoTNames: nonIoT, Shared: nonIoT > threshold}
		detail = append(detail, c)
		if c.Shared {
			shared = append(shared, a)
		} else {
			dedicated = append(dedicated, a)
		}
	}
	return dedicated, shared, detail
}

// TestFilterSharedMatchesReference: on a built world's candidate sets
// (every server of each provider, shared frontends included) the
// memoized filter's three outputs equal the reference loop's at every
// threshold, the default and the shared-name count among them.
func TestFilterSharedMatchesReference(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 25, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	pdns := w.BuildDNSDB()
	period := dnsdb.TimeRange{From: w.Days[0], To: w.Days[len(w.Days)-1].Add(24 * time.Hour)}
	all := patterns.All()
	sharedSeen := 0
	for _, threshold := range []int{0, 1, 5, 12} {
		for _, id := range w.Order {
			var addrs []netip.Addr
			for _, s := range w.Providers[id].Servers {
				addrs = append(addrs, s.Addr)
			}
			name := fmt.Sprintf("%s/threshold=%d", id, threshold)
			ded, sh, detail := FilterShared(addrs, all, pdns, period, threshold)
			wantDed, wantSh, wantDetail := filterSharedReference(addrs, all, pdns, period, threshold)
			if !reflect.DeepEqual(ded, wantDed) || !reflect.DeepEqual(sh, wantSh) || !reflect.DeepEqual(detail, wantDetail) {
				t.Fatalf("%s: FilterShared differs from the reference (%d/%d dedicated, %d/%d shared)",
					name, len(ded), len(wantDed), len(sh), len(wantSh))
			}
			sharedSeen += len(sh)
		}
	}
	if sharedSeen == 0 {
		t.Fatal("no candidate was ever shared: the comparison is vacuous")
	}
}

func TestFilterSharedThresholdSensitivity(t *testing.T) {
	db := dnsdb.New()
	a := netip.MustParseAddr("10.0.0.1")
	recordAddr(db, "x.iot.us-east-1.amazonaws.com", a, t0())
	for i := 0; i < 3; i++ {
		recordAddr(db, "other"+string(rune('a'+i))+".example", a, t0())
	}
	// 3 non-IoT names: dedicated at threshold 5, shared at threshold 2.
	ded, _, _ := FilterShared([]netip.Addr{a}, patterns.All(), db, dnsdb.TimeRange{}, 5)
	if len(ded) != 1 {
		t.Fatal("threshold 5 should keep the address")
	}
	_, sh, _ := FilterShared([]netip.Addr{a}, patterns.All(), db, dnsdb.TimeRange{}, 2)
	if len(sh) != 1 {
		t.Fatal("threshold 2 should drop the address")
	}
	// Zero/negative threshold falls back to the default.
	ded, _, _ = FilterShared([]netip.Addr{a}, patterns.All(), db, dnsdb.TimeRange{}, 0)
	if len(ded) != 1 {
		t.Fatal("default threshold should keep the address")
	}
}

func TestAgainstIPs(t *testing.T) {
	found := []netip.Addr{netip.MustParseAddr("1.1.1.1"), netip.MustParseAddr("2.2.2.2")}
	disclosed := []netip.Addr{netip.MustParseAddr("1.1.1.1"), netip.MustParseAddr("3.3.3.3")}
	r := AgainstIPs(found, disclosed)
	if r.Covered != 1 || r.Disclosed != 2 || r.Found != 2 {
		t.Fatalf("report = %+v", r)
	}
	if r.Coverage() != 0.5 {
		t.Fatalf("coverage = %v", r.Coverage())
	}
	if len(r.Missing) != 1 || r.Missing[0] != netip.MustParseAddr("3.3.3.3") {
		t.Fatalf("missing = %v", r.Missing)
	}
	if (IPReport{}).Coverage() != 1 {
		t.Fatal("empty disclosure coverage should be 1")
	}
}

func TestAgainstPrefixes(t *testing.T) {
	prefixes := []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.1.0/24")}
	found := []netip.Addr{
		netip.MustParseAddr("10.0.0.5"),
		netip.MustParseAddr("10.0.1.9"),
		netip.MustParseAddr("192.0.2.1"),
	}
	r := AgainstPrefixes(found, prefixes)
	if r.Inside != 2 || len(r.Outside) != 1 {
		t.Fatalf("report = %+v", r)
	}
	if r.CoveredAddrs != 512 {
		t.Fatalf("covered addrs = %d", r.CoveredAddrs)
	}
}

func TestAgainstTraffic(t *testing.T) {
	found := []netip.Addr{netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")}
	active := map[netip.Addr]float64{
		netip.MustParseAddr("10.0.0.1"): 500,
		netip.MustParseAddr("10.0.0.2"): 490,
		netip.MustParseAddr("10.0.0.3"): 10, // missed, tiny volume
	}
	r := AgainstTraffic(found, active)
	if r.Active != 3 || r.FoundActive != 2 || len(r.Missed) != 1 {
		t.Fatalf("report = %+v", r)
	}
	if r.VolumeMissFrac < 0.009 || r.VolumeMissFrac > 0.011 {
		t.Fatalf("volume miss = %v, want 1%%", r.VolumeMissFrac)
	}
}
