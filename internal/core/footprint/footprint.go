// Package footprint implements Section 4: geolocating every discovered
// backend IP (domain-name hints first, majority vote over independent
// sources otherwise), aggregating per-provider characteristics into the
// rows of Table 1, classifying deployment strategies (DI/PR), and the
// day-over-day stability analysis of Figure 4.
package footprint

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"iotmap/internal/analysis"
	"iotmap/internal/asdb"
	"iotmap/internal/core/discovery"
	"iotmap/internal/core/patterns"
	"iotmap/internal/geo"
	"iotmap/internal/ipam"
	"iotmap/internal/proto"
)

// LocSource records how a location was determined.
type LocSource uint8

// Location sources.
const (
	// LocHint: region code extracted from the domain name (preferred).
	LocHint LocSource = iota
	// LocVote: majority vote over prefix announcements, scan metadata
	// and looking-glass pings.
	LocVote
	// LocUnknown: no information.
	LocUnknown
)

// Located is one geolocated backend address.
type Located struct {
	Addr     netip.Addr
	Location geo.Location
	Source   LocSource
}

// VoteFunc supplies the independent location opinions for an address.
type VoteFunc func(netip.Addr) []geo.Vote

// Geolocate locates every address of one provider's week union. Hints
// win when a mapped region code appears in any name; otherwise the
// majority vote decides (Section 4.2: disagreement <7%, majority vote).
// An address's names are read in name-ID order, which is their sorted
// order, so of two names with conflicting hints the first in that order
// wins on every call. A name's hint is evaluated once per call, however
// many addresses carry it.
func Geolocate(p *patterns.Pattern, res *discovery.Result, db *geo.DB, votes VoteFunc) map[netip.Addr]Located {
	type nameHint struct {
		done, ok bool
		loc      geo.Location
	}
	hints := make([]nameHint, res.NameCount())
	addrs := res.Addrs()
	out := make(map[netip.Addr]Located, len(addrs))
	for id, addr := range addrs {
		loc := Located{Addr: addr, Source: LocUnknown}
		for _, nid := range res.NameIDs(uint32(id)) {
			h := &hints[nid]
			if !h.done {
				h.done = true
				if hint := p.RegionHint(res.Name(nid)); hint != "" {
					h.loc, h.ok = db.FromHint(hint)
				}
			}
			if h.ok {
				loc.Location = h.loc
				loc.Source = LocHint
				break
			}
		}
		if loc.Source != LocHint && votes != nil {
			if winner, ok := geo.MajorityVote(votes(addr)); ok {
				loc.Location = winner
				loc.Source = LocVote
			}
		}
		out[addr] = loc
	}
	return out
}

// Row is one provider's Table 1 row as measured by the pipeline.
type Row struct {
	Provider  string
	ASes      int
	V4Slash24 int
	V6Slash56 int
	Locations int
	Countries int
	// Ports are the observed open service ports.
	Ports []proto.PortKey
	// Strategy is the inferred deployment strategy.
	Strategy string
	// V4Addrs/V6Addrs are the discovered address counts.
	V4Addrs, V6Addrs int
}

// Characterize aggregates the addresses ids of one provider's week union
// into its Table 1 row. The AS table is the public RouteViews-style
// mapping; an AS whose organization is the provider counts as its own
// for the DI/PR call.
func Characterize(providerID string, res *discovery.Result, ids []uint32, located map[netip.Addr]Located, table *asdb.Table) Row {
	row := Row{Provider: providerID}
	addrs := make([]netip.Addr, 0, len(ids))
	var locs []geo.Location
	asSet := map[asdb.ASN]struct{}{}
	own, foreign := 0, 0
	portSet := map[proto.PortKey]struct{}{}
	for _, id := range ids {
		a := res.Addrs()[id]
		addrs = append(addrs, a)
		if l, ok := located[a]; ok && l.Source != LocUnknown {
			locs = append(locs, l.Location)
		}
		if asn, ok := table.Origin(a); ok {
			asSet[asn] = struct{}{}
			if as, ok := table.LookupAS(asn); ok {
				if strings.EqualFold(as.Org, providerID) {
					own++
				} else {
					foreign++
				}
			}
		}
		for _, pt := range res.Ports(id) {
			portSet[pt.Key] = struct{}{}
		}
	}
	row.ASes = len(asSet)
	row.V4Slash24, row.V6Slash56 = ipam.CountAggregates(addrs)
	row.Locations, row.Countries = geo.CountDistinct(locs)
	v4, v6 := ipam.Split(addrs)
	row.V4Addrs, row.V6Addrs = len(v4), len(v6)
	switch {
	case own > 0 && foreign > 0:
		row.Strategy = "DI+PR"
	case foreign > 0:
		row.Strategy = "PR"
	case own > 0:
		row.Strategy = "DI"
	default:
		row.Strategy = "?"
	}
	for pk := range portSet {
		row.Ports = append(row.Ports, pk)
	}
	sort.Slice(row.Ports, func(i, j int) bool {
		if row.Ports[i].Transport != row.Ports[j].Transport {
			return row.Ports[i].Transport < row.Ports[j].Transport
		}
		return row.Ports[i].Port < row.Ports[j].Port
	})
	return row
}

// PortsString renders the ports column.
func (r Row) PortsString() string {
	parts := make([]string, len(r.Ports))
	for i, p := range r.Ports {
		parts[i] = p.String()
	}
	return strings.Join(parts, ", ")
}

// String renders the row compactly.
func (r Row) String() string {
	return fmt.Sprintf("%-10s AS=%d /24=%d (/56=%d) loc=%d ctry=%d %s [%s]",
		r.Provider, r.ASes, r.V4Slash24, r.V6Slash56, r.Locations, r.Countries, r.Strategy, r.PortsString())
}

// Stability compares one day's address set against the reference day
// (Figure 4's green/red/blue bars).
func Stability(res *discovery.Result, refDay, cmpDay int) (analysis.SetDiff, error) {
	if refDay < 0 || refDay >= len(res.Days) || cmpDay < 0 || cmpDay >= len(res.Days) {
		return analysis.SetDiff{}, fmt.Errorf("footprint: day index out of range")
	}
	return analysis.Compare(res.Days[refDay].IDs, res.Days[cmpDay].IDs), nil
}
