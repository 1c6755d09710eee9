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

// Validation bundles the Section 3.4 ground-truth reports.
type Validation struct {
	// IPs holds per-provider reports for full-disclosure providers.
	IPs map[string]validate.IPReport
	// Prefixes holds the prefix-level report (Microsoft).
	Prefixes map[string]validate.PrefixReport
}

// Validated is the ValidateAndLocate stage's result. Every map is keyed
// by provider ID.
type Validated struct {
	Dedicated  map[string][]netip.Addr
	Shared     map[string][]netip.Addr
	Located    map[string]map[netip.Addr]footprint.Located
	Rows       map[string]footprint.Row
	Validation Validation
	// Index is the collector's backend index over the dedicated sets,
	// built once: TrafficStudy, TrafficInputs and every vantage of a
	// federated run classify against it (discovery is global; only the
	// observation points differ).
	Index *flows.BackendIndex
}

// providerValidation is one provider's share of ValidateAndLocate.
type providerValidation struct {
	ded, shared []netip.Addr
	// certFound[i] says whether the TLS-certificate channel found ded[i].
	certFound []bool
	located   map[netip.Addr]footprint.Located
	row       footprint.Row
	ips       *validate.IPReport
	prefixes  *validate.PrefixReport
}

// validateProvider runs the Section 3.4 filter, the Section 4 geolocation
// and characterization, and the ground-truth checks for one provider.
func (s *System) validateProvider(d *Discovered, p *patterns.Pattern, period dnsdb.TimeRange) providerValidation {
	id := p.ProviderID()
	res := d.Discovery[id]
	addrs := res.Addrs()
	var v providerValidation
	var detail []validate.Classification
	v.ded, v.shared, detail = validate.FilterShared(addrs, s.Patterns, d.PDNS, period, validate.DefaultSharedThreshold)
	v.located = footprint.Geolocate(p, res, s.World.Geo, s.World.GeoVotes)
	// Characterize over the dedicated set only (Section 5 uses only
	// exclusively-IoT infrastructure). detail is parallel to addrs, so
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
		rep := validate.AgainstIPs(addrs, disclosed)
		v.ips = &rep
	}
	if prefixes := s.World.DisclosedPrefixes(id); prefixes != nil {
		rep := validate.AgainstPrefixes(addrs, prefixes)
		v.prefixes = &rep
	}
	return v
}

// ValidateAndLocate runs the Section 3.4 filters, the Section 4
// geolocation and characterization, and the ground-truth validation,
// and builds the backend Index. Providers are independent, so they run
// on a worker pool; the result's maps are filled afterwards, in
// provider order.
func (s *System) ValidateAndLocate() error {
	if s.Discovery == nil {
		return fmt.Errorf("iotmap: Discover must run first")
	}
	out := Validated{
		Dedicated: map[string][]netip.Addr{},
		Shared:    map[string][]netip.Addr{},
		Located:   map[string]map[netip.Addr]footprint.Located{},
		Rows:      map[string]footprint.Row{},
		Validation: Validation{
			IPs:      map[string]validate.IPReport{},
			Prefixes: map[string]validate.PrefixReport{},
		},
		Index: flows.NewBackendIndex(),
	}
	period := dnsdb.TimeRange{From: s.World.Days[0], To: s.World.Days[len(s.World.Days)-1].Add(24 * time.Hour)}
	vals := make([]providerValidation, len(s.Patterns))
	analysis.ForEach(len(s.Patterns), func(i int) { vals[i] = s.validateProvider(&s.Discovered, s.Patterns[i], period) })
	for i, p := range s.Patterns {
		id, v := p.ProviderID(), vals[i]
		out.Dedicated[id] = v.ded
		out.Shared[id] = v.shared
		out.Located[id] = v.located
		out.Rows[id] = v.row
		if v.ips != nil {
			out.Validation.IPs[id] = *v.ips
		}
		if v.prefixes != nil {
			out.Validation.Prefixes[id] = *v.prefixes
		}
		alias := s.World.AliasOf(id)
		for j, a := range v.ded {
			loc := v.located[a].Location
			out.Index.Add(a, alias, loc.Continent, loc.Region, v.certFound[j])
		}
	}
	// Freeze the dense ID assignment before the pipelines (possibly many
	// concurrent vantage worlds) start classifying against it.
	out.Index.Build()
	s.Validated = out
	return nil
}
