// Package hitlist models IPv6 hitlists (Gasser et al., referenced in
// Section 3.3): curated lists of responsive IPv6 addresses annotated with
// the ports they answered on. The paper scans hitlist entries that
// "showed activity for popular IoT ports, i.e., 443 (HTTPS), 8883 (MQTT),
// 1883 (MQTT), and 5671 (AMQP)".
//
// Coverage is inherently partial — Section 3.6 names hitlist coverage as
// the limiting factor for IPv6 discovery — so construction takes a
// coverage fraction.
package hitlist

import (
	"net/netip"
	"sort"

	"iotmap/internal/simrand"
)

// IoTPorts are the ports whose activity qualifies an address for the
// custom IPv6 scan.
var IoTPorts = []uint16{443, 8883, 1883, 5671}

// Entry is one hitlist address with observed-active ports.
type Entry struct {
	Addr  netip.Addr
	Ports []uint16
}

// HasPort reports whether the entry was active on port.
func (e Entry) HasPort(port uint16) bool {
	for _, p := range e.Ports {
		if p == port {
			return true
		}
	}
	return false
}

// Hitlist is an ordered, deduplicated set of entries.
type Hitlist struct {
	entries []Entry
}

// New builds a hitlist from entries, merging duplicates.
func New(entries []Entry) *Hitlist {
	h := &Hitlist{}
	index := map[netip.Addr]int{}
	for _, e := range entries {
		if !e.Addr.IsValid() || e.Addr.Unmap().Is4() {
			continue // IPv6 only
		}
		if i, ok := index[e.Addr]; ok {
			h.entries[i].Ports = mergePorts(h.entries[i].Ports, e.Ports)
			continue
		}
		index[e.Addr] = len(h.entries)
		h.entries = append(h.entries, Entry{Addr: e.Addr, Ports: mergePorts(nil, e.Ports)})
	}
	sort.Slice(h.entries, func(i, j int) bool { return h.entries[i].Addr.Less(h.entries[j].Addr) })
	return h
}

func mergePorts(dst []uint16, src []uint16) []uint16 {
	seen := map[uint16]struct{}{}
	for _, p := range dst {
		seen[p] = struct{}{}
	}
	for _, p := range src {
		if _, dup := seen[p]; !dup {
			seen[p] = struct{}{}
			dst = append(dst, p)
		}
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	return dst
}

// Len returns the entry count.
func (h *Hitlist) Len() int { return len(h.entries) }

// Entries returns all entries in address order.
func (h *Hitlist) Entries() []Entry { return h.entries }

// WithIoTPorts filters to entries active on at least one IoT port —
// the scan-input selection of Section 3.3.
func (h *Hitlist) WithIoTPorts() []Entry {
	var out []Entry
	for _, e := range h.entries {
		for _, p := range IoTPorts {
			if e.HasPort(p) {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// Sample builds a hitlist covering roughly fraction of the candidate
// addresses, chosen deterministically from seed — the partial-coverage
// model of the real hitlists.
func Sample(candidates []Entry, fraction float64, seed int64) *Hitlist {
	if fraction >= 1 {
		return New(candidates)
	}
	if fraction <= 0 {
		return New(nil)
	}
	rng := simrand.Derive(seed, "hitlist")
	var kept []Entry
	for _, e := range candidates {
		if rng.Bool(fraction) {
			kept = append(kept, e)
		}
	}
	return New(kept)
}
