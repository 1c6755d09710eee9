package world

import (
	"context"
	"net/netip"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"iotmap/internal/censys"
	"iotmap/internal/certmodel"
	"iotmap/internal/dnsdb"
	"iotmap/internal/dnsmsg"
	"iotmap/internal/geo"
	"iotmap/internal/proto"
	"iotmap/internal/vnet"
	"iotmap/internal/zgrab"
)

// smallWorld builds a test-sized world once per test binary.
var smallWorldCache *World

func smallWorld(t *testing.T) *World {
	t.Helper()
	if smallWorldCache != nil {
		return smallWorldCache
	}
	w, err := Build(Config{Seed: 7, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	smallWorldCache = w
	return w
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(Config{Seed: 3, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Config{Seed: 3, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	as, bs := a.AllServers(), b.AllServers()
	if len(as) != len(bs) {
		t.Fatalf("server counts differ: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i].Addr != bs[i].Addr || as[i].Provider != bs[i].Provider {
			t.Fatalf("server %d differs: %v vs %v", i, as[i].Addr, bs[i].Addr)
		}
	}
}

func TestAllProvidersPresent(t *testing.T) {
	w := smallWorld(t)
	if len(w.Order) != 16 {
		t.Fatalf("providers = %d, want 16", len(w.Order))
	}
	for _, id := range w.Order {
		p := w.Providers[id]
		if len(p.Servers) == 0 {
			t.Fatalf("provider %s has no servers", id)
		}
		if len(p.Names()) == 0 {
			t.Fatalf("provider %s has no names", id)
		}
	}
}

func TestAddressesUniqueAndIndexed(t *testing.T) {
	w := smallWorld(t)
	seen := map[netip.Addr]string{}
	for _, s := range w.AllServers() {
		if prev, dup := seen[s.Addr]; dup {
			t.Fatalf("address %v assigned to %s and %s", s.Addr, prev, s.Provider)
		}
		seen[s.Addr] = s.Provider
		got, ok := w.ServerAt(s.Addr)
		if !ok || got != s {
			t.Fatalf("index lookup failed for %v", s.Addr)
		}
	}
}

func TestEveryServerRouted(t *testing.T) {
	w := smallWorld(t)
	for _, s := range w.AllServers() {
		ann, ok := w.AS.Lookup(s.Addr)
		if !ok {
			t.Fatalf("server %v not covered by any announcement", s.Addr)
		}
		if ann.Origin != s.ASN {
			t.Fatalf("server %v announced by %v, expected %v", s.Addr, ann.Origin, s.ASN)
		}
	}
}

func TestStrategyASOwnership(t *testing.T) {
	w := smallWorld(t)
	for _, id := range w.Order {
		p := w.Providers[id]
		ownAS, cloudAS := 0, 0
		for _, s := range p.Servers {
			as, ok := w.AS.LookupAS(s.ASN)
			if !ok {
				t.Fatalf("unregistered ASN %v", s.ASN)
			}
			if as.Org == id {
				ownAS++
			} else {
				cloudAS++
			}
		}
		switch p.Spec.Strategy {
		case DI:
			if cloudAS > 0 {
				t.Fatalf("DI provider %s has %d cloud-hosted servers", id, cloudAS)
			}
		case PR:
			if cloudAS == 0 {
				t.Fatalf("PR provider %s has no cloud-hosted servers", id)
			}
		case DIPR:
			if ownAS == 0 || cloudAS == 0 {
				t.Fatalf("DI+PR provider %s: own=%d cloud=%d", id, ownAS, cloudAS)
			}
		}
	}
}

func TestChinaOnlyFootprints(t *testing.T) {
	w := smallWorld(t)
	for _, id := range []string{"baidu", "huawei"} {
		for _, s := range w.Providers[id].Servers {
			if s.Region.Country != "CN" {
				t.Fatalf("%s server outside China: %v", id, s.Region)
			}
		}
	}
}

func TestChurnOnlyForCloudProviders(t *testing.T) {
	w := smallWorld(t)
	last := len(w.Days) - 1
	churned := func(id string) int {
		n := 0
		for _, s := range w.Providers[id].Servers {
			if s.FirstDay > 0 || s.LastDay < last {
				n++
			}
		}
		return n
	}
	// Cloud-reliant providers with enough servers at this scale must
	// churn, Table-stable ones must not. (Bosch/Siemens fleets are too
	// small at Scale=0.05 for a 4-5%% daily churn to round to 1.)
	for _, id := range []string{"amazon", "sap"} {
		if churned(id) == 0 {
			t.Errorf("expected churn for %s", id)
		}
	}
	for _, id := range []string{"fujitsu", "huawei"} {
		if churned(id) > 1 {
			t.Errorf("unexpected churn for %s: %d", id, churned(id))
		}
	}
}

func TestChurnKeepsNames(t *testing.T) {
	w := smallWorld(t)
	p := w.Providers["amazon"]
	for _, s := range p.Servers {
		if s.FirstDay > 0 {
			// Replacement servers inherit shard names: those names must
			// also be served by at least one earlier server.
			found := false
			for _, n := range s.Names {
				for _, other := range p.names[n] {
					if other != s && other.FirstDay == 0 {
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("replacement %v has orphan names %v", s.Addr, s.Names)
			}
		}
	}
}

func TestNameSchemesMatchPaperRegexes(t *testing.T) {
	w := smallWorld(t)
	// The Appendix A regex shapes must match our minted names.
	cases := map[string]string{
		"amazon":    `(.+)(\.iot\.)([[:alnum:]]+(-[[:alnum:]]+)+)?(\.amazonaws\.com\.$)`,
		"oracle":    `(.+\.|^)(iot\.)([[:alnum:]]+(-[[:alnum:]]+)*\.)?(oraclecloud\.com\.$)`,
		"baidu":     `.\.(iot\.)([[:alnum:]]+(-[[:alnum:]]+)*\.)?(baidubce\.com\.$)`,
		"huawei":    `.\.(iot-(coaps|mqtts|https|amqps|api|da)\.).+\.myhuaweicloud\.com\.$`,
		"microsoft": `(.+\.|^)(azure-devices\.net\.$)`,
		"bosch":     `(.+\.|^)(bosch-iot-hub\.com\.$)`,
		"ibm":       `(.+\.|^)(internetofthings\.ibmcloud\.com\.$)`,
		"tencent":   `(.+\.|^)(tencentdevices\.com\.$)`,
		"siemens":   `.(\.(eu|us|cn)1\.mindsphere\.io\.$)`,
		"sierra":    `(.+\.|^)((na|eu|as|ot)\.airvantage\.net\.$)`,
	}
	for id, pattern := range cases {
		re := regexp.MustCompile(pattern)
		for _, name := range w.Providers[id].Names() {
			fqdn := dnsmsg.CanonicalName(name)
			if !re.MatchString(fqdn) {
				t.Errorf("%s name %q does not match its paper regex", id, fqdn)
			}
		}
	}
	for _, name := range w.Providers["google"].Names() {
		if name != "mqtt.googleapis.com" && name != "cloudiotdevice.googleapis.com" {
			t.Errorf("google minted unexpected name %q", name)
		}
	}
}

func TestIPv6OnlyForSevenProviders(t *testing.T) {
	w := smallWorld(t)
	withV6 := map[string]bool{}
	for _, s := range w.AllServers() {
		if s.IsV6() {
			withV6[s.Provider] = true
		}
	}
	want := []string{"alibaba", "amazon", "baidu", "google", "siemens", "sierra", "tencent"}
	if len(withV6) != len(want) {
		t.Fatalf("v6 providers = %v", withV6)
	}
	for _, id := range want {
		if !withV6[id] {
			t.Fatalf("missing v6 for %s", id)
		}
	}
}

func TestCensysSemantics(t *testing.T) {
	w := smallWorld(t)
	svc := w.BuildCensys()
	snap, err := svc.Get(w.Days[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records()) == 0 {
		t.Fatal("empty snapshot")
	}
	// Microsoft: every active server carries a cert.
	msRe := regexp.MustCompile(`(.+\.|^)(azure-devices\.net\.$)`)
	msRecs := snap.SearchCerts(msRe)
	msAddrs := recAddrs(msRecs)
	msActive := 0
	for _, s := range w.Providers["microsoft"].ActiveServers(0) {
		if !s.IsV6() {
			msActive++
		}
	}
	if len(msAddrs) != msActive {
		t.Fatalf("microsoft censys coverage = %d, active = %d", len(msAddrs), msActive)
	}
	// Google: almost nothing via certificates.
	gRe := regexp.MustCompile(`^(mqtt|cloudiotdevice)\.googleapis\.com\.$`)
	gRecs := snap.SearchCerts(gRe)
	gAddrs := recAddrs(gRecs)
	gActive := len(w.Providers["google"].ActiveServers(0))
	// The paper's "<2% of Google IPs" — at tiny scale the leak class is
	// floored at one server, so accept either the percentage bound or
	// the single floored server.
	if frac := float64(len(gAddrs)) / float64(gActive); frac > 0.05 && len(gAddrs) > 1 {
		t.Fatalf("google censys fraction = %f (%d addrs), want <2%%-ish", frac, len(gAddrs))
	}
	// No IPv6 in Censys (the paper's scan was IPv4-only).
	for _, r := range snap.Records() {
		if r.Addr.Is6() && !r.Addr.Is4In6() {
			t.Fatalf("IPv6 record in censys snapshot: %v", r.Addr)
		}
	}
}

func TestDNSDBCoverageAndSharedNames(t *testing.T) {
	w := smallWorld(t)
	db := w.BuildDNSDB()
	if obs := db.BasicSearch("*.googleapis.com.", 0, dnsdb.TimeRange{}); len(obs) == 0 {
		t.Fatal("dnsdb holds no googleapis.com name")
	}
	// Shared (non-dedicated) servers must carry many non-IoT names.
	var shared *Server
	for _, s := range w.Providers["google"].Servers {
		if !s.Dedicated() && s.ActiveOn(0) && !s.IsV6() {
			shared = s
			break
		}
	}
	if shared == nil {
		t.Skip("no shared google server at this scale")
	}
	names := db.NamesForAddr(shared.Addr, dnsdb.TimeRange{})
	nonIoT := 0
	for _, n := range names {
		if !strings.Contains(dnsmsg.CanonicalName(n), "googleapis") {
			nonIoT++
		}
	}
	if nonIoT < sharedNonIoTNames {
		t.Fatalf("shared server has only %d non-IoT names", nonIoT)
	}
}

func TestZoneStoreGeoViews(t *testing.T) {
	w := smallWorld(t)
	store := w.ZoneStores()[0]
	// Google's fixed FQDN must answer differently in EU vs US views.
	eu, rc := store.Lookup("eu-1", "mqtt.googleapis.com", dnsmsg.TypeA)
	if rc != dnsmsg.RCodeSuccess || len(eu) == 0 {
		t.Fatalf("eu view: rc=%v n=%d", rc, len(eu))
	}
	us, _ := store.Lookup("us-1", "mqtt.googleapis.com", dnsmsg.TypeA)
	if len(us) == 0 {
		t.Fatal("us view empty")
	}
	euSet := map[netip.Addr]bool{}
	for _, rr := range eu {
		euSet[rr.Addr] = true
	}
	diff := false
	for _, rr := range us {
		if !euSet[rr.Addr] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("geo views identical for google")
	}
	// Every EU answer must be an EU server.
	for _, rr := range eu {
		s, ok := w.ServerAt(rr.Addr)
		if !ok {
			t.Fatalf("zone answer %v not a known server", rr.Addr)
		}
		if s.Region.Continent != "EU" {
			t.Fatalf("eu view returned %v in %v", rr.Addr, s.Region.Continent)
		}
	}
}

func TestZoneRotationAcrossDays(t *testing.T) {
	w := smallWorld(t)
	name := "mqtt.googleapis.com"
	stores := w.ZoneStores()
	day0, _ := stores[0].Lookup("eu-1", name, dnsmsg.TypeA)
	day1, _ := stores[1].Lookup("eu-1", name, dnsmsg.TypeA)
	if len(day0) == 0 || len(day1) == 0 {
		t.Skip("no rotation material at this scale")
	}
	set0 := map[netip.Addr]bool{}
	for _, rr := range day0 {
		set0[rr.Addr] = true
	}
	fresh := 0
	for _, rr := range day1 {
		if !set0[rr.Addr] {
			fresh++
		}
	}
	// At least rotation must not shrink coverage to a fixed set when
	// there are more servers than the answer window.
	euServers := 0
	for _, s := range w.Providers["google"].ActiveServers(1) {
		if s.Region.Continent == "EU" {
			euServers++
		}
	}
	if euServers > maxDNSAnswers && fresh == 0 {
		t.Fatal("rotation produced no fresh addresses on day 1")
	}
}

func TestHitlistExcludesActiveOnlyProviders(t *testing.T) {
	w := smallWorld(t)
	h := w.BuildHitlist(1.0)
	for _, e := range h.Entries() {
		s, ok := w.ServerAt(e.Addr)
		if !ok {
			t.Fatalf("hitlist entry %v unknown", e.Addr)
		}
		if s.Provider == "alibaba" {
			t.Fatal("alibaba v6 server leaked onto hitlist")
		}
		if !s.IsV6() {
			t.Fatalf("v4 address on v6 hitlist: %v", e.Addr)
		}
	}
	partial := w.BuildHitlist(0.5)
	if partial.Len() >= h.Len() {
		t.Fatalf("partial coverage %d >= full %d", partial.Len(), h.Len())
	}
}

func TestDisclosures(t *testing.T) {
	w := smallWorld(t)
	if ips := w.DisclosedIPs("cisco"); len(ips) == 0 {
		t.Fatal("cisco disclosure empty")
	}
	if ips := w.DisclosedIPs("amazon"); ips != nil {
		t.Fatal("amazon should not disclose IPs")
	}
	prefixes := w.DisclosedPrefixes("microsoft")
	if len(prefixes) == 0 {
		t.Fatal("microsoft prefixes empty")
	}
	// Every Microsoft server must be inside a disclosed prefix.
	for _, s := range w.Providers["microsoft"].Servers {
		covered := false
		for _, pfx := range prefixes {
			if pfx.Contains(s.Addr) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("server %v outside disclosed prefixes", s.Addr)
		}
	}
}

func TestAliases(t *testing.T) {
	w := smallWorld(t)
	if w.AliasOf("amazon") != "T1" || w.AliasOf("google") != "T2" {
		t.Fatal("alias mapping broken")
	}
	seen := map[string]bool{}
	for _, id := range w.Order {
		a := w.AliasOf(id)
		if seen[a] {
			t.Fatalf("duplicate alias %s", a)
		}
		seen[a] = true
	}
}

func TestDeployAndLiveScan(t *testing.T) {
	w := smallWorld(t)
	fabric := vnet.New()
	defer fabric.Close()
	ca, err := certmodel.NewCA("World Test CA")
	if err != nil {
		t.Fatal(err)
	}
	// Deploy the v6 servers of one default-cert provider and scan them.
	var targets []*Server
	for _, s := range w.Providers["tencent"].Servers {
		if s.IsV6() && s.ActiveOn(0) {
			targets = append(targets, s)
		}
	}
	if len(targets) == 0 {
		t.Skip("no tencent v6 at this scale")
	}
	if err := w.DeployServers(fabric, ca, targets); err != nil {
		t.Fatal(err)
	}
	sc := &zgrab.Scanner{Dialer: fabric, Timeout: 2 * time.Second, Seed: 1}
	res := sc.Probe(context.Background(), zgrab.Target{
		Addr: targets[0].Addr, Port: 8883, Protocol: proto.MQTTS,
	})
	if res.Cert == nil {
		t.Fatalf("live scan found no cert: %+v", res)
	}
	matched := false
	re := regexp.MustCompile(`(.+\.|^)(tencentdevices\.com\.$)`)
	if res.Cert.MatchesRegexp(re) {
		matched = true
	}
	if !matched {
		t.Fatalf("live cert names %v do not match pattern", res.Cert.DNSNames)
	}
}

func TestGeoVotesMajorityIsTruth(t *testing.T) {
	w := smallWorld(t)
	wrong := 0
	n := 0
	for _, s := range w.AllServers() {
		votes := w.GeoVotes(s.Addr)
		if len(votes) != 3 {
			t.Fatalf("votes = %d", len(votes))
		}
		winner, ok := geoMajority(votes)
		if !ok {
			t.Fatal("no majority")
		}
		n++
		if winner.City != s.Region.City {
			wrong++
		}
	}
	if frac := float64(wrong) / float64(n); frac > 0.03 {
		t.Fatalf("majority vote wrong for %.1f%% of servers", frac*100)
	}
	if votes := w.GeoVotes(netip.MustParseAddr("203.0.113.1")); votes != nil {
		t.Fatal("votes for unknown address")
	}
}

func geoMajority(votes []geo.Vote) (geo.Location, bool) { return geo.MajorityVote(votes) }

// recAddrs extracts the unique addresses of censys records, sorted.
func recAddrs(records []censys.Record) []netip.Addr {
	out := make([]netip.Addr, 0, len(records))
	for _, r := range records {
		out = append(out, r.Addr)
	}
	slices.SortFunc(out, netip.Addr.Compare)
	return slices.Compact(out)
}
