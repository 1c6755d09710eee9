// Package bgpstream models the Cisco BGPStream event feed of Section 6.2:
// historical BGP leaks, possible hijacks, and AS outages over the study
// week, plus the impact matcher that checks whether any event touched an
// identified IoT backend IP or its hosting AS. The paper observed 10
// leaks, 40 possible hijacks, and 166 AS outages — none affecting any
// backend.
package bgpstream

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"iotmap/internal/asdb"
	"iotmap/internal/simrand"
)

// Kind is the event category.
type Kind uint8

// Event kinds.
const (
	Leak Kind = iota
	Hijack
	ASOutage
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Leak:
		return "bgp-leak"
	case Hijack:
		return "possible-hijack"
	case ASOutage:
		return "as-outage"
	default:
		return "unknown"
	}
}

// Event is one feed entry.
type Event struct {
	Kind Kind
	// Prefix is set for leaks and hijacks.
	Prefix netip.Prefix
	// ASN is the leaking/hijacked/failed AS.
	ASN asdb.ASN
	// At is the event time.
	At time.Time
}

// Feed is a queryable set of events.
type Feed struct {
	events []Event
}

// NewFeed wraps events.
func NewFeed(events []Event) *Feed {
	cp := append([]Event(nil), events...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].At.Before(cp[j].At) })
	return &Feed{events: cp}
}

// Events returns all events in time order.
func (f *Feed) Events() []Event { return f.events }

// Count tallies events per kind.
func (f *Feed) Count() map[Kind]int {
	out := map[Kind]int{}
	for _, e := range f.events {
		out[e.Kind]++
	}
	return out
}

// Impact is one event touching monitored infrastructure.
type Impact struct {
	Event Event
	// Addr is the affected backend address (leaks/hijacks), invalid for
	// AS outages.
	Addr netip.Addr
	// ASN is the affected hosting AS for AS outages.
	ASN asdb.ASN
}

// CheckImpact returns every event that covers a monitored backend IP
// (prefix events) or a hosting AS (outage events). The table is static,
// so each address's origin is resolved once into the set of hosting ASes
// and every outage event is one probe of that set — the same answer as
// CheckImpactAt with the table as its origin, without a trie walk per
// (event, address).
func (f *Feed) CheckImpact(addrs []netip.Addr, table *asdb.Table) []Impact {
	hosting := map[asdb.ASN]struct{}{}
	for _, a := range addrs {
		if asn, ok := table.Origin(a); ok {
			hosting[asn] = struct{}{}
		}
	}
	return f.checkImpact(addrs, func(e Event) bool {
		_, hit := hosting[e.ASN]
		return hit
	})
}

// OriginAt resolves a monitored address's hosting AS as of a point in
// time. A static routing table ignores `at`; a scenario
// with an AS migration answers differently before and after cutover, so
// an outage of the abandoned AS stops matching the fleet that left it.
type OriginAt func(a netip.Addr, at time.Time) (asdb.ASN, bool)

// CheckImpactAt is CheckImpact with time-aware origin resolution: each
// event's hosting-AS match is evaluated at the event's own timestamp,
// so infrastructure that migrated between ASes mid-study is attributed
// to the AS it actually sat in when the event fired. Prefix events
// (leaks, hijacks) match on address containment, which migration does
// not change.
func (f *Feed) CheckImpactAt(addrs []netip.Addr, origin OriginAt) []Impact {
	return f.checkImpact(addrs, func(e Event) bool {
		for _, a := range addrs {
			if asn, ok := origin(a, e.At); ok && asn == e.ASN {
				return true
			}
		}
		return false
	})
}

// checkImpact walks the feed in event order: prefix events match every
// contained address, an outage event matches once when hostsMonitored
// says its AS hosts a monitored address.
func (f *Feed) checkImpact(addrs []netip.Addr, hostsMonitored func(Event) bool) []Impact {
	var out []Impact
	for _, e := range f.events {
		switch e.Kind {
		case Leak, Hijack:
			for _, a := range addrs {
				if e.Prefix.IsValid() && e.Prefix.Contains(a) {
					out = append(out, Impact{Event: e, Addr: a})
				}
			}
		case ASOutage:
			if hostsMonitored(e) {
				out = append(out, Impact{Event: e, ASN: e.ASN})
			}
		}
	}
	return out
}

// GenerateConfig sizes a synthetic feed.
type GenerateConfig struct {
	Leaks     int
	Hijacks   int
	ASOutages int
	// Days is the observation window.
	Days []time.Time
	// AvoidASNs keeps generated events away from these ASes (the
	// paper's week had no backend-affecting events; the what-if path
	// injects its own).
	AvoidASNs map[asdb.ASN]struct{}
}

// PaperWeek returns the §6.2 event volume.
func PaperWeek(days []time.Time) GenerateConfig {
	return GenerateConfig{Leaks: 10, Hijacks: 40, ASOutages: 166, Days: days}
}

// Generate builds a feed of background-Internet events. Event prefixes
// are drawn from documentation/benchmark space far from the world's
// backend pools, and ASNs skip AvoidASNs.
func Generate(cfg GenerateConfig, seed int64) (*Feed, error) {
	if len(cfg.Days) == 0 {
		return nil, fmt.Errorf("bgpstream: no observation window")
	}
	rng := simrand.Derive(seed, "bgpstream")
	randomTime := func() time.Time {
		d := cfg.Days[rng.Intn(len(cfg.Days))]
		return d.Add(time.Duration(rng.Intn(24*60)) * time.Minute)
	}
	randomPrefix := func() netip.Prefix {
		// 198.18.0.0/15 benchmark space and neighbors: never overlaps
		// the world's 16.0.0.0/6 backend pools or 95/8 subscribers.
		a := netip.AddrFrom4([4]byte{198, byte(18 + rng.Intn(2)), byte(rng.Intn(256)), 0})
		return netip.PrefixFrom(a, 24)
	}
	randomASN := func() asdb.ASN {
		for {
			asn := asdb.ASN(1000 + rng.Intn(60000))
			if cfg.AvoidASNs != nil {
				if _, avoid := cfg.AvoidASNs[asn]; avoid {
					continue
				}
			}
			return asn
		}
	}
	var events []Event
	for i := 0; i < cfg.Leaks; i++ {
		events = append(events, Event{Kind: Leak, Prefix: randomPrefix(), ASN: randomASN(), At: randomTime()})
	}
	for i := 0; i < cfg.Hijacks; i++ {
		events = append(events, Event{Kind: Hijack, Prefix: randomPrefix(), ASN: randomASN(), At: randomTime()})
	}
	for i := 0; i < cfg.ASOutages; i++ {
		events = append(events, Event{Kind: ASOutage, ASN: randomASN(), At: randomTime()})
	}
	return NewFeed(events), nil
}

// WhatIfHijack builds a hypothetical event covering the given prefix —
// the cascading-effects probe the paper's discussion motivates.
func WhatIfHijack(pfx netip.Prefix, at time.Time) Event {
	return Event{Kind: Hijack, Prefix: pfx, At: at}
}
