package footprint

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"iotmap/internal/censys"
	"iotmap/internal/certmodel"
	"iotmap/internal/core/discovery"
	"iotmap/internal/core/patterns"
	"iotmap/internal/geo"
	"iotmap/internal/proto"
	"iotmap/internal/world"
)

var (
	cachedWorld *world.World
	cachedRes   map[string]*discovery.Result
)

func pipeline(t *testing.T) (*world.World, map[string]*discovery.Result) {
	t.Helper()
	if cachedRes != nil {
		return cachedWorld, cachedRes
	}
	w, err := world.Build(world.Config{Seed: 31, Scale: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	res, err := discovery.Run(context.Background(), discovery.Inputs{
		Patterns: patterns.All(),
		Censys:   w.BuildCensys(),
		PDNS:     w.BuildDNSDB(),
		Zones:    w.ZoneStores(),
		Views:    world.VantagePointViews,
		Days:     w.Days,
		Seed:     31,
	})
	if err != nil {
		t.Fatal(err)
	}
	cachedWorld, cachedRes = w, res
	return w, res
}

func TestGeolocateHintsAndVotes(t *testing.T) {
	w, res := pipeline(t)
	byID := patterns.ByProvider()
	// Amazon names carry region hints; locations must be near-perfect.
	located := Geolocate(byID["amazon"], res["amazon"], w.Geo, w.GeoVotes)
	if len(located) == 0 {
		t.Fatal("nothing located")
	}
	hintCount, wrong := 0, 0
	for addr, l := range located {
		if l.Source == LocHint {
			hintCount++
		}
		srv, _ := w.ServerAt(addr)
		if srv != nil && l.Source != LocUnknown && l.Location.Country != srv.Region.Country {
			wrong++
		}
	}
	if hintCount == 0 {
		t.Error("no hint-based locations for amazon")
	}
	if frac := float64(wrong) / float64(len(located)); frac > 0.05 {
		t.Errorf("wrong-country fraction = %.2f", frac)
	}
	// Microsoft names carry no region: everything comes from votes.
	msLocated := Geolocate(byID["microsoft"], res["microsoft"], w.Geo, w.GeoVotes)
	for _, l := range msLocated {
		if l.Source == LocHint {
			t.Error("microsoft produced a hint-based location")
			break
		}
	}
}

// allIDs lists every address ID of a provider's week union.
func allIDs(res *discovery.Result) []uint32 {
	ids := make([]uint32, len(res.Addrs()))
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

// TestGeolocateConflictingHintsIsStable: an address whose names carry
// two different region hints is located by the first hinted name in
// name order, the same on every call. The address is hand-built: one
// scan record whose certificate names a Frankfurt and an Ashburn
// endpoint.
func TestGeolocateConflictingHintsIsStable(t *testing.T) {
	day := time.Date(2022, 2, 28, 0, 0, 0, 0, time.UTC)
	addr := netip.MustParseAddr("203.0.113.7")
	cert := &certmodel.Spec{
		SubjectCN: "dev7.iot.us-east-1.amazonaws.com",
		DNSNames:  []string{"dev7.iot.us-east-1.amazonaws.com", "dev7.iot.eu-central-1.amazonaws.com"},
		NotBefore: day.AddDate(0, -1, 0),
		NotAfter:  day.AddDate(1, 0, 0),
	}
	svc := censys.NewService()
	svc.Put(censys.NewCatalog([]censys.Record{{
		Addr: addr, Port: 8883, Transport: proto.TCP, Protocol: proto.MQTTS, Cert: cert,
	}}).Snapshot(day, nil))
	amazon := patterns.ByProvider()["amazon"]
	res, err := discovery.Run(context.Background(), discovery.Inputs{
		Patterns: []*patterns.Pattern{amazon},
		Censys:   svc,
		Days:     []time.Time{day},
	})
	if err != nil {
		t.Fatal(err)
	}
	union := res["amazon"]
	if len(union.Addrs()) != 1 || len(union.NameIDs(0)) != 2 {
		t.Fatalf("want one address carrying two names, got %d addresses", len(union.Addrs()))
	}
	db := geo.World()
	for _, region := range []string{"us-east-1", "eu-central-1"} {
		if _, ok := db.FromHint(region); !ok {
			t.Fatalf("the geo table does not know %s; the hints do not conflict", region)
		}
	}
	// "dev7.iot.eu-central-1..." sorts before "dev7.iot.us-east-1...".
	want, _ := db.FromHint("eu-central-1")
	for i := 0; i < 50; i++ {
		l := Geolocate(amazon, union, db, nil)[addr]
		if l.Source != LocHint || l.Location != want {
			t.Fatalf("call %d: located %+v via %v, want the first hinted name's %+v", i, l.Location, l.Source, want)
		}
	}
}

func TestCharacterizeRows(t *testing.T) {
	w, res := pipeline(t)
	byID := patterns.ByProvider()
	for _, id := range []string{"amazon", "microsoft", "bosch", "oracle"} {
		located := Geolocate(byID[id], res[id], w.Geo, w.GeoVotes)
		row := Characterize(id, res[id], allIDs(res[id]), located, w.AS)
		if row.V4Addrs == 0 {
			t.Errorf("%s: no v4 addrs", id)
		}
		if row.ASes == 0 {
			t.Errorf("%s: no ASes", id)
		}
		if row.Locations == 0 || row.Countries == 0 {
			t.Errorf("%s: no locations", id)
		}
		if len(row.Ports) == 0 {
			t.Errorf("%s: no ports", id)
		}
		if row.String() == "" || row.PortsString() == "" {
			t.Errorf("%s: empty rendering", id)
		}
	}
}

func TestStrategyInference(t *testing.T) {
	w, res := pipeline(t)
	byID := patterns.ByProvider()
	expect := map[string]string{
		"amazon":    "DI",
		"microsoft": "DI",
		"bosch":     "PR",
		"sap":       "PR",
	}
	for id, want := range expect {
		located := Geolocate(byID[id], res[id], w.Geo, w.GeoVotes)
		row := Characterize(id, res[id], allIDs(res[id]), located, w.AS)
		if row.Strategy != want {
			t.Errorf("%s strategy = %s, want %s", id, row.Strategy, want)
		}
	}
	// Oracle mixes its own network with a CDN (DI+PR) — require at
	// least that both kinds of servers were discovered before asserting.
	oracle := res["oracle"]
	ownSeen, cdnSeen := false, false
	for _, a := range oracle.Addrs() {
		if s, ok := w.ServerAt(a); ok {
			if s.CloudHost == "" {
				ownSeen = true
			} else {
				cdnSeen = true
			}
		}
	}
	if ownSeen && cdnSeen {
		located := Geolocate(byID["oracle"], oracle, w.Geo, w.GeoVotes)
		row := Characterize("oracle", oracle, allIDs(oracle), located, w.AS)
		if row.Strategy != "DI+PR" {
			t.Errorf("oracle strategy = %s, want DI+PR", row.Strategy)
		}
	}
}

// Figure 4: cloud-reliant providers churn; dedicated ones stay stable.
func TestStabilityShape(t *testing.T) {
	_, res := pipeline(t)
	lastIdx := len(res["sap"].Days) - 1

	sapDiff, err := Stability(res["sap"], 0, lastIdx)
	if err != nil {
		t.Fatal(err)
	}
	_, sapOnlyRef, sapOnlyCur := sapDiff.Fractions()
	sapChurn := sapOnlyRef + sapOnlyCur

	msDiff, err := Stability(res["microsoft"], 0, lastIdx)
	if err != nil {
		t.Fatal(err)
	}
	_, msOnlyRef, msOnlyCur := msDiff.Fractions()
	msChurn := msOnlyRef + msOnlyCur

	if sapChurn <= msChurn {
		t.Errorf("sap week churn (%.2f) should exceed microsoft (%.2f)", sapChurn, msChurn)
	}
	// Day-1 comparison shows hardly any change for stable providers.
	d1, err := Stability(res["microsoft"], 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	both, _, _ := d1.Fractions()
	if both < 0.95 {
		t.Errorf("microsoft day-1 overlap = %.2f", both)
	}
	if _, err := Stability(res["sap"], 0, 99); err == nil {
		t.Fatal("out-of-range day accepted")
	}
}

func TestContinentOf(t *testing.T) {
	located := map[netip.Addr]Located{
		netip.MustParseAddr("1.1.1.1"): {Location: geo.Location{City: "F", Country: "DE", Continent: geo.Europe}, Source: LocHint},
	}
	if c := ContinentOf(located, netip.MustParseAddr("1.1.1.1")); c != geo.Europe {
		t.Fatalf("continent = %v", c)
	}
	if c := ContinentOf(located, netip.MustParseAddr("9.9.9.9")); c != geo.Unknown {
		t.Fatalf("unknown continent = %v", c)
	}
}

// ContinentOf buckets a located address for the cross-region analyses.
func ContinentOf(located map[netip.Addr]Located, a netip.Addr) geo.Continent {
	if l, ok := located[a]; ok && l.Source != LocUnknown {
		return l.Location.Continent
	}
	return geo.Unknown
}
