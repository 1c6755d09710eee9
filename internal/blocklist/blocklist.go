// Package blocklist models the FireHOL-style blocklist aggregation of
// Section 6.2: dozens of source lists (open proxies, malware C2, attack
// and spam feeds, personal lists) merged into one reputation set, then
// intersected with the discovered backend IPs. The paper finds 16 backend
// IPs across 6 providers on the February 2022 aggregate.
package blocklist

import (
	"fmt"
	"net/netip"
	"sort"

	"iotmap/internal/simrand"
	"iotmap/internal/world"
)

// Reason categorizes why an address is listed.
type Reason string

// The paper's §6.2 reason taxonomy.
const (
	ReasonProxy    Reason = "open-proxy/anonymizer"
	ReasonMalware  Reason = "malware"
	ReasonAttack   Reason = "network-attack/spam"
	ReasonPersonal Reason = "personal-blocklist"
)

// List is one source blocklist.
type List struct {
	Name    string
	Reason  Reason
	Entries map[netip.Addr]struct{}
}

// Aggregate is the merged view with per-address reasons.
type Aggregate struct {
	lists   []List
	reasons map[netip.Addr][]Reason
}

// NewAggregate merges lists.
func NewAggregate(lists []List) *Aggregate {
	a := &Aggregate{lists: lists, reasons: map[netip.Addr][]Reason{}}
	for _, l := range lists {
		for addr := range l.Entries {
			a.reasons[addr] = append(a.reasons[addr], l.Reason)
		}
	}
	return a
}

// Size returns the number of distinct listed addresses.
func (a *Aggregate) Size() int { return len(a.reasons) }

// Lists returns the number of source lists.
func (a *Aggregate) Lists() int { return len(a.lists) }

// Hit is one backend address found on the aggregate.
type Hit struct {
	Addr     netip.Addr
	Provider string
	Reasons  []Reason
}

// Match intersects backend addresses with the aggregate. ownerOf maps an
// address to its provider ID.
func (a *Aggregate) Match(addrs []netip.Addr, ownerOf func(netip.Addr) string) []Hit {
	var out []Hit
	for _, addr := range addrs {
		if rs, ok := a.reasons[addr]; ok {
			out = append(out, Hit{Addr: addr, Provider: ownerOf(addr), Reasons: rs})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr.Less(out[j].Addr) })
	return out
}

// paperListings is the §6.2 per-provider listing count at Scale=1:
// "Baidu (5 IPs), Microsoft (4 IPs), SAP (4 IPs), Google (3 IPs),
// Amazon (2 IPs), and Alibaba (1 IP)" — 19 listings over 16 distinct
// addresses (some appear on multiple lists).
var paperListings = []struct {
	provider string
	count    int
}{
	{"baidu", 5}, {"microsoft", 4}, {"sap", 4}, {"google", 3}, {"amazon", 2}, {"alibaba", 1},
}

// BuildFireHOL synthesizes the February 2022 aggregate against a world:
// 67 source lists dominated by unrelated addresses, plus the paper's
// per-provider backend listings (scaled with the world).
func BuildFireHOL(w *world.World, seed int64) *Aggregate {
	rng := simrand.Derive(seed, "firehol")
	mkAddr := func() netip.Addr {
		// Unrelated Internet noise outside the backend ranges.
		return netip.AddrFrom4([4]byte{byte(180 + rng.Intn(60)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))})
	}
	reasonOf := []Reason{ReasonProxy, ReasonMalware, ReasonAttack, ReasonPersonal}
	lists := make([]List, 0, 67)
	for i := 0; i < 67; i++ {
		l := List{
			Name:    fmt.Sprintf("feed-%02d", i),
			Reason:  reasonOf[i%len(reasonOf)],
			Entries: map[netip.Addr]struct{}{},
		}
		for k := 0; k < 200+rng.Intn(400); k++ {
			l.Entries[mkAddr()] = struct{}{}
		}
		lists = append(lists, l)
	}
	// Plant the backend listings: scale counts with the world but list
	// at least one address for every named provider that has servers.
	li := 0
	for _, pl := range paperListings {
		p, ok := w.Providers[pl.provider]
		if !ok || len(p.Servers) == 0 {
			continue
		}
		n := pl.count
		if w.Cfg.Scale < 1 {
			n = int(float64(n)*w.Cfg.Scale + 0.999)
			if n < 1 {
				n = 1
			}
		}
		for k := 0; k < n && k < len(p.Servers); k++ {
			srv := p.Servers[rng.Intn(len(p.Servers))]
			lists[li%len(lists)].Entries[srv.Addr] = struct{}{}
			li++
		}
	}
	return NewAggregate(lists)
}
