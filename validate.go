package iotmap

import (
	"fmt"
	"net/netip"
	"time"

	"iotmap/internal/analysis"
	"iotmap/internal/core/discovery"
	"iotmap/internal/core/flows"
	"iotmap/internal/core/footprint"
	"iotmap/internal/core/patterns"
	"iotmap/internal/core/validate"
	"iotmap/internal/dnsdb"
)

// providerValidation is one provider's share of ValidateAndLocate.
type providerValidation struct {
	addrs, ded, shared []netip.Addr
	// certFound[i] says whether the TLS-certificate channel found ded[i].
	certFound []bool
	located   map[netip.Addr]footprint.Located
	row       footprint.Row
	ips       *validate.IPReport
	prefixes  *validate.PrefixReport
}

// validateProvider runs the Section 3.4 filter, the Section 4 geolocation
// and characterization, and the ground-truth checks for one provider.
func (s *System) validateProvider(p *patterns.Pattern, period dnsdb.TimeRange) providerValidation {
	id := p.ProviderID()
	res := s.Discovery[id]
	v := providerValidation{addrs: res.Addrs()}
	var detail []validate.Classification
	v.ded, v.shared, detail = validate.FilterShared(v.addrs, s.Patterns, s.PDNS, period, validate.DefaultSharedThreshold)
	v.located = footprint.Geolocate(p, res, s.World.Geo, s.World.GeoVotes)
	// Characterize over the dedicated set only (Section 5 uses only
	// exclusively-IoT infrastructure). detail is parallel to v.addrs, so
	// an address's index there is its discovery ID.
	dedIDs := make([]uint32, 0, len(v.ded))
	v.certFound = make([]bool, 0, len(v.ded))
	for i, c := range detail {
		if !c.Shared {
			dedIDs = append(dedIDs, uint32(i))
			v.certFound = append(v.certFound, res.Sources(uint32(i)).Has(discovery.SrcCert))
		}
	}
	v.row = footprint.Characterize(id, res, dedIDs, v.located, s.World.AS)
	if disclosed := s.World.DisclosedIPs(id); disclosed != nil {
		rep := validate.AgainstIPs(v.addrs, disclosed)
		v.ips = &rep
	}
	if prefixes := s.World.DisclosedPrefixes(id); prefixes != nil {
		rep := validate.AgainstPrefixes(v.addrs, prefixes)
		v.prefixes = &rep
	}
	return v
}

// ValidateAndLocate runs the Section 3.4 filters, the Section 4
// geolocation and characterization, and the ground-truth validation,
// and builds the backend Index. Providers are independent, so they run
// on a worker pool; the System's maps are written afterwards, in
// provider order.
func (s *System) ValidateAndLocate() error {
	if s.Discovery == nil {
		return fmt.Errorf("iotmap: Discover must run first")
	}
	s.Dedicated = map[string][]netip.Addr{}
	s.Shared = map[string][]netip.Addr{}
	s.Located = map[string]map[netip.Addr]footprint.Located{}
	s.Rows = map[string]footprint.Row{}
	s.Validation = Validation{
		IPs:      map[string]validate.IPReport{},
		Prefixes: map[string]validate.PrefixReport{},
		Traffic:  map[string]validate.TrafficReport{},
	}
	s.prefixAddrs = map[string][]netip.Addr{}
	idx := flows.NewBackendIndex()
	period := dnsdb.TimeRange{From: s.World.Days[0], To: s.World.Days[len(s.World.Days)-1].Add(24 * time.Hour)}
	vals := make([]providerValidation, len(s.Patterns))
	analysis.ForEach(len(s.Patterns), func(i int) { vals[i] = s.validateProvider(s.Patterns[i], period) })
	for i, p := range s.Patterns {
		id, v := p.ProviderID(), vals[i]
		s.Dedicated[id] = v.ded
		s.Shared[id] = v.shared
		s.Located[id] = v.located
		s.Rows[id] = v.row
		if v.ips != nil {
			s.Validation.IPs[id] = *v.ips
		}
		if v.prefixes != nil {
			s.Validation.Prefixes[id] = *v.prefixes
			s.prefixAddrs[id] = v.addrs
		}
		alias := s.World.AliasOf(id)
		for j, a := range v.ded {
			loc := v.located[a].Location
			idx.Add(a, alias, loc.Continent, loc.Region, v.certFound[j])
		}
	}
	// Freeze the dense ID assignment before the pipelines (possibly many
	// concurrent vantage worlds) start classifying against it.
	idx.Build()
	s.Index = idx
	return nil
}
