// Package validate implements Section 3.4: separating dedicated IoT
// backend IPs from shared infrastructure (CDNs, multi-tenant web
// frontends) via reverse passive-DNS domain counting, and checking the
// discovered sets against the ground truth a few providers publish.
package validate

import (
	"net/netip"
	"sort"

	"iotmap/internal/core/patterns"
	"iotmap/internal/dnsdb"
)

// DefaultSharedThreshold is the non-IoT domain count above which an IP
// is treated as shared. The paper tunes this threshold by inspection;
// the sensitivity ablation lives in the benchmarks.
const DefaultSharedThreshold = 5

// Classification is the outcome for one address.
type Classification struct {
	Addr netip.Addr
	// NonIoTNames is how many observed names match no provider pattern.
	NonIoTNames int
	// Shared marks addresses exceeding the threshold.
	Shared bool
}

// FilterShared classifies candidate addresses for one provider. The
// reverse index is the passive-DNS database: every name that resolves to
// the IP and matches no IoT pattern counts against it (the method of
// Saidi et al. and Iordanou et al. the paper adopts). Whether a name
// matches any pattern is decided once per distinct name per call, trying
// the pattern that matched last first: the candidates of one provider
// mostly carry that provider's names.
func FilterShared(addrs []netip.Addr, allPatterns []*patterns.Pattern, pdns *dnsdb.DB, tr dnsdb.TimeRange, threshold int) (dedicated []netip.Addr, shared []netip.Addr, detail []Classification) {
	if threshold <= 0 {
		threshold = DefaultSharedThreshold
	}
	isIoT := map[string]bool{}
	last := 0
	for _, a := range addrs {
		nonIoT := 0
		for _, n := range pdns.NamesForAddr(a, tr) {
			matched, seen := isIoT[n]
			if !seen {
				matched = len(allPatterns) > 0 && allPatterns[last].MatchFQDN(n)
				for i := 0; i < len(allPatterns) && !matched; i++ {
					if i != last && allPatterns[i].MatchFQDN(n) {
						matched, last = true, i
					}
				}
				isIoT[n] = matched
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

// IPReport compares a discovered set against a published IP list
// (Cisco, Siemens: "Our methodology identified all the publicly listed
// IP addresses").
type IPReport struct {
	Disclosed int
	Found     int
	// Covered is how many disclosed IPs the pipeline discovered.
	Covered int
	// Missing lists disclosed-but-undiscovered addresses.
	Missing []netip.Addr
}

// Coverage returns Covered/Disclosed (1 when nothing is disclosed).
func (r IPReport) Coverage() float64 {
	if r.Disclosed == 0 {
		return 1
	}
	return float64(r.Covered) / float64(r.Disclosed)
}

// AgainstIPs builds the report.
func AgainstIPs(found []netip.Addr, disclosed []netip.Addr) IPReport {
	set := map[netip.Addr]struct{}{}
	for _, a := range found {
		set[a] = struct{}{}
	}
	r := IPReport{Disclosed: len(disclosed), Found: len(found)}
	for _, d := range disclosed {
		if _, ok := set[d]; ok {
			r.Covered++
		} else {
			r.Missing = append(r.Missing, d)
		}
	}
	sort.Slice(r.Missing, func(i, j int) bool { return r.Missing[i].Less(r.Missing[j]) })
	return r
}

// PrefixReport compares discovery against published prefixes
// (Microsoft: thousands of covered addresses, hundreds active).
type PrefixReport struct {
	Prefixes int
	// CoveredAddrs is how many addresses the prefixes span (clamped).
	CoveredAddrs uint64
	Found        int
	// Inside counts discovered addresses within the prefixes; every
	// discovered address should be (the paper found all 484 inside).
	Inside  int
	Outside []netip.Addr
}

// AgainstPrefixes builds the report.
func AgainstPrefixes(found []netip.Addr, prefixes []netip.Prefix) PrefixReport {
	r := PrefixReport{Prefixes: len(prefixes), Found: len(found)}
	for _, p := range prefixes {
		span := p.Addr().BitLen() - p.Bits()
		if span > 32 {
			span = 32
		}
		r.CoveredAddrs += 1 << uint(span)
	}
	for _, a := range found {
		inside := false
		for _, p := range prefixes {
			if p.Contains(a) {
				inside = true
				break
			}
		}
		if inside {
			r.Inside++
		} else {
			r.Outside = append(r.Outside, a)
		}
	}
	return r
}

// TrafficReport is the traffic cross-check: of the addresses observed
// active at the ISP, how many did the pipeline find, and what volume
// share would be missed (the paper: 4 of 52 active IPs missed, <1% of
// volume).
type TrafficReport struct {
	Active      int
	FoundActive int
	Missed      []netip.Addr
	// VolumeMissFrac is the traffic share of the missed addresses.
	VolumeMissFrac float64
}

// AgainstTraffic builds the report from per-address traffic volumes.
// The volumes sum exactly as integers and divide once, so the miss
// fraction does not depend on the map's iteration order.
func AgainstTraffic(found []netip.Addr, activeVolume map[netip.Addr]uint64) TrafficReport {
	set := map[netip.Addr]struct{}{}
	for _, a := range found {
		set[a] = struct{}{}
	}
	var r TrafficReport
	var total, missed uint64
	for a, v := range activeVolume {
		r.Active++
		total += v
		if _, ok := set[a]; ok {
			r.FoundActive++
		} else {
			r.Missed = append(r.Missed, a)
			missed += v
		}
	}
	if total > 0 {
		r.VolumeMissFrac = float64(missed) / float64(total)
	}
	sort.Slice(r.Missed, func(i, j int) bool { return r.Missed[i].Less(r.Missed[j]) })
	return r
}
