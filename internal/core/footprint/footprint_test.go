package footprint

import (
	"context"
	"net/netip"
	"testing"

	"iotmap/internal/core/discovery"
	"iotmap/internal/core/patterns"
	"iotmap/internal/geo"
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
	union := res["amazon"].Union()
	located := Geolocate(byID["amazon"], union, w.Geo, w.GeoVotes)
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
	msUnion := res["microsoft"].Union()
	msLocated := Geolocate(byID["microsoft"], msUnion, w.Geo, w.GeoVotes)
	for _, l := range msLocated {
		if l.Source == LocHint {
			t.Error("microsoft produced a hint-based location")
			break
		}
	}
}

func TestCharacterizeRows(t *testing.T) {
	w, res := pipeline(t)
	byID := patterns.ByProvider()
	for _, id := range []string{"amazon", "microsoft", "bosch", "oracle"} {
		union := res[id].Union()
		located := Geolocate(byID[id], union, w.Geo, w.GeoVotes)
		row := Characterize(id, union, located, w.AS)
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
		union := res[id].Union()
		located := Geolocate(byID[id], union, w.Geo, w.GeoVotes)
		row := Characterize(id, union, located, w.AS)
		if row.Strategy != want {
			t.Errorf("%s strategy = %s, want %s", id, row.Strategy, want)
		}
	}
	// Oracle mixes its own network with a CDN (DI+PR) — require at
	// least that both kinds of servers were discovered before asserting.
	union := res["oracle"].Union()
	ownSeen, cdnSeen := false, false
	for a := range union {
		if s, ok := w.ServerAt(a); ok {
			if s.CloudHost == "" {
				ownSeen = true
			} else {
				cdnSeen = true
			}
		}
	}
	if ownSeen && cdnSeen {
		located := Geolocate(byID["oracle"], union, w.Geo, w.GeoVotes)
		row := Characterize("oracle", union, located, w.AS)
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
