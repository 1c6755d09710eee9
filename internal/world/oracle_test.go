package world

import (
	"reflect"
	"testing"

	"iotmap/internal/censys"
	"iotmap/internal/core/patterns"
	"iotmap/internal/dnsmsg"
	"iotmap/internal/dnszone"
	"iotmap/internal/iotserver"
)

// The from-scratch per-day builders BuildCensys and ZoneStores replaced.
// They rebuild a day from the server list alone, one record and one
// AddAddr at a time, and stay here as the oracles the derived builders
// must equal.

// censysRecordsFromScratch lists one day's scan records the way
// BuildCensys used to: per active server, a fresh geolocation draw and a
// fresh certificate per TLS endpoint.
func censysRecordsFromScratch(w *World, di int) []censys.Record {
	var records []censys.Record
	for _, id := range w.Order {
		p := w.Providers[id]
		for _, s := range p.Servers {
			if !s.ActiveOn(di) || s.IsV6() {
				continue
			}
			loc := w.censysLocation(s)
			for _, ep := range s.Class.Endpoints {
				rec := censys.Record{
					Addr:      s.Addr,
					Port:      ep.Port,
					Transport: ep.Transport,
					Protocol:  ep.Protocol,
					Location:  loc,
				}
				switch {
				case ep.Protocol.TLSCapable() && ep.Policy == iotserver.PolicyDefaultCert:
					spec := w.certSpecFor(s)
					rec.Cert = &spec
					rec.Banner = "tls"
				case ep.Protocol.TLSCapable():
					rec.Banner = ""
				default:
					rec.Banner = plaintextBanner(ep)
				}
				records = append(records, rec)
			}
		}
	}
	return records
}

// zoneStoreFromScratch builds one day's authoritative content from
// scratch: every active server of every name, one AddAddr per view.
func zoneStoreFromScratch(w *World, dayIdx int) *dnszone.Store {
	store := dnszone.NewStore()
	for _, id := range w.Order {
		p := w.Providers[id]
		store.AddZone(p.Spec.SLD, dnsmsg.SOAData{
			MName: "ns1." + p.Spec.SLD + ".", RName: "hostmaster." + p.Spec.SLD + ".",
			Serial: uint32(2022022800 + dayIdx), Minimum: 300,
		})
		for _, name := range p.Names() {
			var active []*Server
			for _, s := range p.names[name] {
				if s.ActiveOn(dayIdx) {
					active = append(active, s)
				}
			}
			if len(active) == 0 {
				continue
			}
			ttl := uint32(300)
			if p.Spec.GeoDNS {
				ttl = 60
			}
			for vi, view := range VantagePointViews {
				pool := active
				if p.Spec.GeoDNS {
					cont := vpContinent(view)
					var near []*Server
					for _, s := range active {
						if s.Region.Continent == cont {
							near = append(near, s)
						}
					}
					if len(near) > 0 {
						pool = near
					}
				}
				for _, s := range rotate(pool, dayIdx*3+vi) {
					store.AddAddr(view, name, s.Addr, ttl)
				}
			}
			for _, s := range rotate(active, dayIdx) {
				store.AddAddr(dnszone.DefaultView, name, s.Addr, ttl)
			}
		}
	}
	return store
}

// churnedWorld builds a world and then hand-edits lifetimes so the week
// contains the cases a mild churn rate may not produce: a name whose
// servers all retire mid-week (and one that comes back), next to the
// organic churn, the geo-DNS providers and the names larger than one
// answer window the seed already has.
func churnedWorld(t *testing.T) (w *World, emptied, revived string) {
	t.Helper()
	w, err := Build(Config{Seed: 11, Scale: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	names := w.Providers["sap"].Names()
	if len(names) < 2 {
		t.Fatal("sap has too few names to edit")
	}
	emptied, revived = names[0], names[1]
	for _, s := range w.Providers["sap"].names[emptied] {
		if s.LastDay > 3 {
			s.LastDay = 3
		}
	}
	for i, s := range w.Providers["sap"].names[revived] {
		// Gone on days 2–4: the first server returns on day 5 (as a
		// server that started late would), the rest retire for good.
		if i == 0 {
			s.FirstDay, s.LastDay = 5, len(w.Days)-1
		} else if s.LastDay > 1 {
			s.LastDay = 1
		}
	}
	return w, emptied, revived
}

func TestCensysCatalogMatchesFromScratch(t *testing.T) {
	w, _, _ := churnedWorld(t)
	svc := w.BuildCensys()
	pats := patterns.All()
	changed := false
	for di, day := range w.Days {
		snap, err := svc.Get(day)
		if err != nil {
			t.Fatal(err)
		}
		want := censys.NewCatalog(censysRecordsFromScratch(w, di)).Snapshot(day, nil)
		if di > 0 && want.Len() != 0 {
			prev, _ := svc.Get(w.Days[di-1])
			changed = changed || !reflect.DeepEqual(prev.Records(), snap.Records())
		}
		recs := snap.Records()
		if snap.Len() != want.Len() || !reflect.DeepEqual(recs, want.Records()) {
			t.Fatalf("day %d: catalog view has %d records, from-scratch snapshot %d, or they differ", di, snap.Len(), want.Len())
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Endpoint() == recs[i-1].Endpoint() {
				t.Fatalf("day %d: (Addr, Port) %v is not unique", di, recs[i].Endpoint())
			}
		}
		for _, s := range w.AllServers() {
			if !reflect.DeepEqual(snap.ByAddr(s.Addr), want.ByAddr(s.Addr)) {
				t.Fatalf("day %d: ByAddr(%v) differs", di, s.Addr)
			}
		}
		for _, p := range pats {
			ref := want.SearchCerts(p.Regex)
			if got := snap.SearchCertsAnchored(p.Regex, p.Anchors()); !reflect.DeepEqual(got, ref) {
				t.Fatalf("day %d %s: anchored search over the catalog view: %d records, full scan from scratch: %d",
					di, p.ProviderID(), len(got), len(ref))
			}
			if got := snap.SearchCerts(p.Regex); !reflect.DeepEqual(got, ref) {
				t.Fatalf("day %d %s: full scan over the catalog view differs", di, p.ProviderID())
			}
		}
	}
	if !changed {
		t.Fatal("no two consecutive snapshots differ: the world did not churn")
	}
}

func TestZoneStoresMatchFromScratch(t *testing.T) {
	w, emptied, revived := churnedWorld(t)
	stores := w.ZoneStores()
	if len(stores) != len(w.Days) {
		t.Fatalf("%d stores for %d days", len(stores), len(w.Days))
	}
	views := append([]string{dnszone.DefaultView, "nowhere"}, VantagePointViews...)
	types := []dnsmsg.Type{dnsmsg.TypeA, dnsmsg.TypeAAAA, dnsmsg.TypeCNAME}

	// What the comparison below must have walked through to mean much.
	var sawGeo, sawRotation, sawShared bool
	for _, id := range w.Order {
		p := w.Providers[id]
		for _, name := range p.Names() {
			if p.Spec.GeoDNS && len(p.names[name]) > 1 {
				sawGeo = true
			}
			if len(p.names[name]) > maxDNSAnswers {
				sawRotation = true
			}
		}
	}
	if !sawGeo || !sawRotation {
		t.Fatalf("world lacks a geo-DNS name (%v) or a name over %d servers (%v)", sawGeo, maxDNSAnswers, sawRotation)
	}

	for di := range w.Days {
		got, want := stores[di], zoneStoreFromScratch(w, di)
		if !reflect.DeepEqual(got.Names(), want.Names()) {
			t.Fatalf("day %d: Names() differ: %d derived, %d from scratch", di, len(got.Names()), len(want.Names()))
		}
		var names []string
		for _, id := range w.Order {
			p := w.Providers[id]
			// Every name the provider ever had, whether or not the day
			// serves it, plus the apex (SOA in the authority section is
			// checked through the serial below).
			names = append(names, p.Names()...)
			names = append(names, p.Spec.SLD, "absent."+p.Spec.SLD)

			apex, ok := got.Authority("x." + p.Spec.SLD)
			if !ok {
				t.Fatalf("day %d: no authority for %s", di, p.Spec.SLD)
			}
			if serial := soaSerial(t, got, apex); serial != uint32(2022022800+di) {
				t.Fatalf("day %d: %s SOA serial %d", di, apex, serial)
			}
		}
		for _, view := range views {
			for _, name := range names {
				for _, typ := range types {
					ga, grc := got.Lookup(view, name, typ)
					wa, wrc := want.Lookup(view, name, typ)
					if grc != wrc || !reflect.DeepEqual(ga, wa) {
						t.Fatalf("day %d: Lookup(%q, %s, %v): derived %v %v, from scratch %v %v",
							di, view, name, typ, grc, ga, wrc, wa)
					}
					if di == 0 || len(ga) == 0 {
						continue
					}
					id, stable := got.AnswerID(view, name, typ)
					prevID, _ := stores[di-1].AnswerID(view, name, typ)
					if !stable {
						t.Fatalf("day %d: %s %v answer not stable without a CNAME", di, name, typ)
					}
					pa, _ := stores[di-1].Lookup(view, name, typ)
					if same := reflect.DeepEqual(ga, pa); same != (id == prevID) {
						t.Fatalf("day %d: Lookup(%q, %s, %v): answers equal = %v but IDs equal = %v",
							di, view, name, typ, same, id == prevID)
					}
					sawShared = sawShared || id == prevID
				}
			}
		}
	}
	if !sawShared {
		t.Fatal("no RRset was shared between two days")
	}
	if a, rc := stores[4].Lookup("eu-1", emptied, dnsmsg.TypeA); len(a) != 0 || rc != dnsmsg.RCodeNXDomain {
		t.Fatalf("%s still answers on day 4 after losing every server: %v %v", emptied, rc, a)
	}
	if a, _ := stores[3].Lookup("eu-1", revived, dnsmsg.TypeA); len(a) != 0 {
		t.Fatalf("%s answers on day 3, inside its gap", revived)
	}
	a5, _ := stores[5].Lookup("eu-1", revived, dnsmsg.TypeA)
	a55, _ := stores[5].Lookup("eu-1", revived, dnsmsg.TypeAAAA)
	if len(a5)+len(a55) == 0 {
		t.Fatalf("%s did not come back on day 5", revived)
	}
}

// soaSerial reads a zone's serial the way a client sees it: from the
// authority section of a NODATA answer.
func soaSerial(t *testing.T, store *dnszone.Store, apex string) uint32 {
	t.Helper()
	q := &dnsmsg.Message{
		Header:    dnsmsg.Header{ID: 1},
		Questions: []dnsmsg.Question{{Name: apex, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN}},
	}
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnsmsg.Unpack(dnszone.NewLocalServer(store, dnszone.DefaultView).HandleWire(wire))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Authority) != 1 || m.Authority[0].SOA == nil {
		t.Fatalf("no SOA in the authority section for %s", apex)
	}
	return m.Authority[0].SOA.Serial
}
