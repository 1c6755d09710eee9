package world

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"iotmap/internal/censys"
	"iotmap/internal/certmodel"
	"iotmap/internal/dnsdb"
	"iotmap/internal/dnsmsg"
	"iotmap/internal/dnszone"
	"iotmap/internal/geo"
	"iotmap/internal/hitlist"
	"iotmap/internal/iotserver"
	"iotmap/internal/ipam"
	"iotmap/internal/simrand"
	"iotmap/internal/vnet"
)

// This file holds the observation channels: everything the measurement
// pipeline may legitimately see. Each channel reproduces the coverage
// gaps of its real-world counterpart (Sections 3.3–3.6).

// certValidityMargin pads certificate validity around the study period.
const certValidityMargin = 30 * 24 * time.Hour

// certSpecFor builds the certificate metadata an endpoint would present.
// Shared servers present their hosting platform's certificate, whose
// names do not match any IoT pattern — that is why the shared-IP filter
// (Section 3.4) is needed at all.
func (w *World) certSpecFor(s *Server) certmodel.Spec {
	start, end := w.Days[0], w.Days[len(w.Days)-1]
	spec := certmodel.Spec{
		NotBefore: start.Add(-certValidityMargin),
		NotAfter:  end.Add(certValidityMargin),
		Issuer:    "Study CA",
	}
	if s.Dedicated() {
		spec.SubjectCN = s.Names[0]
		spec.DNSNames = append([]string(nil), s.Names...)
		return spec
	}
	// Hosting-platform certificate (CDN / shared web frontend).
	spec.SubjectCN = fmt.Sprintf("edge-%s.sharedplatform.example", s.Addr)
	spec.DNSNames = []string{spec.SubjectCN, "*.sharedplatform.example"}
	return spec
}

// BuildCensys synthesizes the daily IPv4 scan snapshots. Endpoint
// semantics follow Section 3.3: SNI-required and client-cert-required
// endpoints yield no certificate; plaintext services yield banners only.
//
// What a scan sees of a server (its endpoints, its certificate, the scan
// provider's geolocation opinion) is the same on every day the server is
// up, so the records of the whole study period are built and indexed
// once, as one catalog; a day's snapshot is its ActiveOn(day) subset.
func (w *World) BuildCensys() *censys.Service {
	var records []censys.Record
	for _, id := range w.Order {
		for _, s := range w.Providers[id].Servers {
			if s.IsV6() {
				continue
			}
			loc := w.censysLocation(s)
			var cert *certmodel.Spec
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
					if cert == nil {
						spec := w.certSpecFor(s)
						cert = &spec
					}
					rec.Cert = cert
					rec.Banner = "tls"
				case ep.Protocol.TLSCapable():
					// Port open, handshake failed: no certificate.
					rec.Banner = ""
				default:
					rec.Banner = plaintextBanner(ep)
				}
				records = append(records, rec)
			}
		}
	}
	cat := censys.NewCatalog(records)
	sorted := cat.Records()
	owner := make([]*Server, len(sorted))
	for i := range sorted {
		if i > 0 && sorted[i].Addr == sorted[i-1].Addr {
			owner[i] = owner[i-1]
			continue
		}
		owner[i] = w.byAddr[sorted[i].Addr]
	}
	svc := censys.NewService()
	for di, day := range w.Days {
		svc.Put(cat.Snapshot(day, func(i int) bool { return owner[i].ActiveOn(di) }))
	}
	return svc
}

func plaintextBanner(ep EndpointSpec) string {
	switch ep.Protocol {
	case 0:
		return ""
	default:
		return ep.Protocol.String()
	}
}

// censysLocation returns the scan provider's geolocation opinion: the
// true metro most of the time, a wrong one at the small rate that forces
// the majority vote of Section 4.2.
const geoErrorRate = 0.05

func (w *World) censysLocation(s *Server) geo.Location {
	return w.noisyLocation(s, "censys-geo")
}

func (w *World) noisyLocation(s *Server, source string) geo.Location {
	rng := simrand.Derive(w.Cfg.Seed, "geoloc", source, s.Addr.String())
	if rng.Float64() >= geoErrorRate {
		return s.Region
	}
	all := w.Geo.All()
	return all[rng.Intn(len(all))]
}

// GeoVotes returns the independent location opinions available for an
// address (prefix-announcement location, scan metadata, looking-glass
// pings) — the majority-vote inputs for IPs whose hostnames carry no
// region hint.
func (w *World) GeoVotes(addr netip.Addr) []geo.Vote {
	s, ok := w.byAddr[addr]
	if !ok {
		return nil
	}
	return []geo.Vote{
		{Source: "prefix-announcement", Location: w.noisyLocation(s, "hurricane")},
		{Source: "censys-geo", Location: w.noisyLocation(s, "censys-geo")},
		{Source: "looking-glass", Location: w.noisyLocation(s, "ping")},
	}
}

// sharedNonIoTNames is how many unrelated domains a shared IP carries in
// passive DNS — far above any sane dedicated-IP threshold.
const sharedNonIoTNames = 12

// BuildDNSDB synthesizes the passive-DNS database over the study period.
// Sensor coverage is partial per provider (PDNSNameFrac / PDNSAddrFrac);
// shared servers accumulate many non-IoT names; a few dedicated servers
// get one or two stray names to exercise threshold robustness.
func (w *World) BuildDNSDB() *dnsdb.DB {
	db := dnsdb.New()
	for _, id := range w.Order {
		p := w.Providers[id]
		spec := p.Spec
		for _, name := range p.Names() {
			nameRng := simrand.Derive(w.Cfg.Seed, "pdns-name", name)
			if !nameRng.Bool(spec.PDNSNameFrac) {
				continue // the sensors never saw this FQDN
			}
			recorded := 0
			record := func(s *Server, rng *simrand.Source) {
				// The sensors witness popular mappings most days they
				// are live: record a sighting on ~80% of the server's
				// active days (per-day coverage is what Figure 3's
				// daily source split measures).
				for di := s.FirstDay; di <= s.LastDay && di < len(w.Days); di++ {
					if di != s.FirstDay && !rng.Bool(0.8) {
						continue
					}
					at := w.Days[di].Add(time.Duration(rng.Intn(24)) * time.Hour)
					db.RecordAddr(name, s.Addr, at)
				}
				recorded++
			}
			for _, s := range p.names[name] {
				addrRng := simrand.Derive(w.Cfg.Seed, "pdns-addr", name, s.Addr.String())
				if !addrRng.Bool(spec.PDNSAddrFrac) {
					continue
				}
				record(s, addrRng)
			}
			// A sensor that observed the FQDN at all saw at least one
			// answer: never leave an observed name without rdata, or
			// active resolution (which targets DNSDB names) could miss
			// whole shards.
			if recorded == 0 && len(p.names[name]) > 0 {
				s := p.names[name][0]
				record(s, simrand.Derive(w.Cfg.Seed, "pdns-addr-floor", name))
			}
		}
		// Non-IoT names over shared IPs, plus occasional strays on
		// dedicated ones.
		for _, s := range p.Servers {
			rng := simrand.Derive(w.Cfg.Seed, "pdns-shared", s.Addr.String())
			if !s.Dedicated() {
				for k := 0; k < sharedNonIoTNames+rng.Intn(8); k++ {
					n := fmt.Sprintf("www.site%d.shared-web.example", rng.Intn(100000))
					at := w.Days[rng.Intn(len(w.Days))].Add(time.Duration(rng.Intn(24)) * time.Hour)
					db.RecordAddr(n, s.Addr, at)
				}
			} else if rng.Bool(0.05) {
				n := fmt.Sprintf("vanity%d.example.org", rng.Intn(100000))
				at := w.Days[rng.Intn(len(w.Days))].Add(time.Duration(rng.Intn(24)) * time.Hour)
				db.RecordAddr(n, s.Addr, at)
			}
		}
	}
	return db
}

// Vantage points for the active-DNS campaign: two in Europe, one in the
// US (Section 3.3).
var VantagePointViews = []string{"eu-1", "eu-2", "us-1"}

func vpContinent(view string) geo.Continent {
	switch view {
	case "eu-1", "eu-2":
		return geo.Europe
	case "us-1":
		return geo.NorthAmerica
	default:
		return geo.Unknown
	}
}

// maxDNSAnswers bounds one response's address count (rotation window).
const maxDNSAnswers = 13

// zoneName is one FQDN's state while the study period's zone stores are
// derived: who may ever answer for it, and the answer window each view
// was last given.
type zoneName struct {
	cname   string
	servers []*Server
	geoDNS  bool
	ttl     uint32
	// windows[vi] is the server window published under zoneViews[vi] on
	// the previous day; all nil while the name is out of the zone.
	windows [][]*Server
}

// ZoneStores builds the authoritative DNS content of every study day.
// Geo-DNS providers answer per-view with their nearest-continent servers;
// every answer set is a rotating window so daily re-resolution discovers
// additional addresses (the mechanism behind the paper's +17% from three
// vantage points and the value of daily resolutions).
//
// Day 0 is built in full; each later day is derived from its predecessor
// (dnszone.Store.Derive) and republishes only the answer sets that the
// churn schedule or the rotation window moved. An unchanged RRset is
// therefore the same set, with the same dnszone.SetID, in every store
// that serves it, which is what lets a resolver skip re-asking.
func (w *World) ZoneStores() []*dnszone.Store {
	days := len(w.Days)
	// The default view comes last; its rotation offset differs.
	zoneViews := append(append([]string(nil), VantagePointViews...), dnszone.DefaultView)
	var names []*zoneName
	for _, id := range w.Order {
		p := w.Providers[id]
		ttl := uint32(300)
		if p.Spec.GeoDNS {
			ttl = 60
		}
		for _, name := range p.Names() {
			names = append(names, &zoneName{
				cname:   dnsmsg.CanonicalName(name),
				servers: p.names[name],
				geoDNS:  p.Spec.GeoDNS,
				ttl:     ttl,
				windows: make([][]*Server, len(zoneViews)),
			})
		}
	}

	stores := make([]*dnszone.Store, days)
	var active, near []*Server
	var addrs []netip.Addr
	for d := range stores {
		store := dnszone.NewStore()
		if d > 0 {
			store = stores[d-1].Derive()
		}
		stores[d] = store
		for _, id := range w.Order {
			sld := w.Providers[id].Spec.SLD
			store.AddZone(sld, dnsmsg.SOAData{
				MName: "ns1." + sld + ".", RName: "hostmaster." + sld + ".",
				Serial: uint32(2022022800 + d), Minimum: 300,
			})
		}
		for _, zn := range names {
			active = active[:0]
			for _, s := range zn.servers {
				if s.ActiveOn(d) {
					active = append(active, s)
				}
			}
			if len(active) == 0 {
				if zn.windows[0] != nil {
					store.RemoveName(zn.cname)
					clear(zn.windows)
				}
				continue
			}
			for vi, view := range zoneViews {
				pool, offset := active, d
				if view != dnszone.DefaultView {
					offset = d*3 + vi
					if zn.geoDNS {
						cont := vpContinent(view)
						near = near[:0]
						for _, s := range active {
							if s.Region.Continent == cont {
								near = append(near, s)
							}
						}
						if len(near) > 0 {
							pool = near
						}
					}
				}
				window := rotate(pool, offset)
				if slices.Equal(window, zn.windows[vi]) {
					continue // same servers in the same order: same RRsets
				}
				zn.windows[vi] = append(zn.windows[vi][:0], window...)
				addrs = addrs[:0]
				for _, s := range window {
					addrs = append(addrs, s.Addr)
				}
				store.SetAddrs(view, zn.cname, addrs, zn.ttl)
			}
		}
	}
	return stores
}

// rotate returns a deterministic window of up to maxDNSAnswers servers.
func rotate(servers []*Server, offset int) []*Server {
	n := len(servers)
	if n <= maxDNSAnswers {
		return servers
	}
	out := make([]*Server, 0, maxDNSAnswers)
	start := (offset * maxDNSAnswers) % n
	if start < 0 {
		start += n
	}
	for i := 0; i < maxDNSAnswers; i++ {
		out = append(out, servers[(start+i)%n])
	}
	return out
}

// BuildHitlist assembles the IPv6 hitlist with the given coverage
// fraction. Providers whose v6 estate never answers unsolicited probes
// (IPv6ActiveOnly) stay off the list, as on the real hitlists.
func (w *World) BuildHitlist(coverage float64) *hitlist.Hitlist {
	var candidates []hitlist.Entry
	for _, id := range w.Order {
		p := w.Providers[id]
		if p.Spec.IPv6ActiveOnly {
			continue
		}
		for _, s := range p.Servers {
			if !s.IsV6() {
				continue
			}
			var ports []uint16
			for _, ep := range s.Class.Endpoints {
				for _, iot := range hitlist.IoTPorts {
					if ep.Port == iot {
						ports = append(ports, ep.Port)
					}
				}
			}
			if len(ports) == 0 {
				continue
			}
			candidates = append(candidates, hitlist.Entry{Addr: s.Addr, Ports: ports})
		}
	}
	return hitlist.Sample(candidates, coverage, w.Cfg.Seed)
}

// DeployServers binds gateway endpoints for the given servers into a
// vnet fabric, issuing real certificates. Used for the live IPv6 scan
// and protocol-level integration tests; the IPv4-wide channel is the
// metadata snapshot from BuildCensys.
func (w *World) DeployServers(f *vnet.Fabric, ca *certmodel.CA, servers []*Server) error {
	gw := iotserver.NewGateway(f, ca)
	for _, s := range servers {
		for _, epSpec := range s.Class.Endpoints {
			hostnames := s.Names
			if !s.Dedicated() {
				hostnames = []string{fmt.Sprintf("edge-%s.sharedplatform.example", s.Addr)}
			}
			err := gw.Bind(iotserver.Endpoint{
				Addr:      netip.AddrPortFrom(s.Addr, epSpec.Port),
				Protocol:  epSpec.Protocol,
				Policy:    epSpec.Policy,
				Hostnames: hostnames,
			})
			if err != nil {
				return fmt.Errorf("world: deploy %s %s:%d: %w", s.Provider, s.Addr, epSpec.Port, err)
			}
		}
	}
	return nil
}

// V6Servers returns every IPv6 server of every provider.
func (w *World) V6Servers() []*Server {
	var out []*Server
	for _, s := range w.AllServers() {
		if s.IsV6() {
			out = append(out, s)
		}
	}
	return out
}

// DisclosedIPs returns the ground-truth IP list a provider publishes
// (Cisco, Siemens — Section 3.4), empty otherwise.
func (w *World) DisclosedIPs(id string) []netip.Addr {
	p, ok := w.Providers[id]
	if !ok || p.Spec.Discloses != DiscloseIPs {
		return nil
	}
	var out []netip.Addr
	for _, s := range p.Servers {
		out = append(out, s.Addr)
	}
	return ipam.SortAddrs(out)
}

// DisclosedPrefixes returns the published prefix list (Microsoft). The
// prefixes cover far more addresses than are ever active — the reason
// the paper's prefix-based validation needs the traffic cross-check.
func (w *World) DisclosedPrefixes(id string) []netip.Prefix {
	p, ok := w.Providers[id]
	if !ok || p.Spec.Discloses != DisclosePrefixes {
		return nil
	}
	seen := map[netip.Prefix]struct{}{}
	var out []netip.Prefix
	for _, s := range p.Servers {
		pfx := w.prefixOf[s.Addr]
		if _, dup := seen[pfx]; dup {
			continue
		}
		seen[pfx] = struct{}{}
		out = append(out, pfx)
	}
	return out
}

// AliasOf maps a provider ID to its anonymized ISP-analysis label.
func (w *World) AliasOf(id string) string {
	if p, ok := w.Providers[id]; ok {
		return p.Spec.Alias
	}
	return ""
}
