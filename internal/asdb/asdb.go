// Package asdb implements the BGP routing-table substrate: an AS registry,
// prefix announcements, and a longest-prefix-match table equivalent to the
// "RouteViews Prefix to AS mapping dataset from CAIDA" the paper uses to
// map IP addresses to prefixes and AS numbers (Section 4.3).
package asdb

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
)

// ASN is an autonomous system number.
type ASN uint32

// String renders the conventional AS notation.
func (a ASN) String() string { return "AS" + strconv.FormatUint(uint64(a), 10) }

// AS describes one autonomous system.
type AS struct {
	Number ASN
	Name   string
	// Org is the operating organization, used to classify deployments as
	// Dedicated Infrastructure (provider-managed AS) or Public Resources
	// (cloud/CDN AS) in Section 4.2.
	Org string
}

// Announcement is one prefix originated by an AS.
type Announcement struct {
	Prefix netip.Prefix
	Origin ASN
}

// Table is a longest-prefix-match routing table for IPv4 and IPv6,
// implemented as two binary tries. Lookups walk at most 32 or 128 nodes,
// the classic unibit-trie bound. asdb_test.go keeps a linear-scan
// matcher as the trie's reference oracle and benchmarks the two.
type Table struct {
	v4, v6 *trieNode
	ases   map[ASN]AS
}

type trieNode struct {
	child [2]*trieNode
	// ann is non-nil when a prefix terminates at this node.
	ann *Announcement
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{v4: &trieNode{}, v6: &trieNode{}, ases: make(map[ASN]AS)}
}

// RegisterAS records AS metadata. Announcing from an unregistered AS is
// allowed (the registry is advisory, as in the real routing system).
func (t *Table) RegisterAS(as AS) { t.ases[as.Number] = as }

// LookupAS returns the metadata registered for a number.
func (t *Table) LookupAS(n ASN) (AS, bool) {
	as, ok := t.ases[n]
	return as, ok
}

// ASes returns all registered ASes sorted by number.
func (t *Table) ASes() []AS {
	out := make([]AS, 0, len(t.ases))
	for _, as := range t.ases {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
	return out
}

// Announce installs a prefix announcement, replacing any previous origin
// for the exact same prefix (as a newer BGP update would).
func (t *Table) Announce(pfx netip.Prefix, origin ASN) error {
	if !pfx.IsValid() {
		return fmt.Errorf("asdb: invalid prefix")
	}
	pfx = pfx.Masked()
	root := t.v6
	if pfx.Addr().Is4() {
		root = t.v4
	}
	n := root
	addr := pfx.Addr().AsSlice()
	for i := 0; i < pfx.Bits(); i++ {
		b := bit(addr, i)
		if n.child[b] == nil {
			n.child[b] = &trieNode{}
		}
		n = n.child[b]
	}
	n.ann = &Announcement{Prefix: pfx, Origin: origin}
	return nil
}

// Lookup returns the longest matching announcement for addr.
func (t *Table) Lookup(addr netip.Addr) (Announcement, bool) {
	if !addr.IsValid() {
		return Announcement{}, false
	}
	addr = addr.Unmap()
	root := t.v6
	if addr.Is4() {
		root = t.v4
	}
	var best *Announcement
	n := root
	raw := addr.AsSlice()
	maxBits := addr.BitLen()
	for i := 0; ; i++ {
		if n.ann != nil {
			best = n.ann
		}
		if i >= maxBits {
			break
		}
		n = n.child[bit(raw, i)]
		if n == nil {
			break
		}
	}
	if best == nil {
		return Announcement{}, false
	}
	return *best, true
}

// Origin is shorthand for Lookup(...).Origin.
func (t *Table) Origin(addr netip.Addr) (ASN, bool) {
	ann, ok := t.Lookup(addr)
	return ann.Origin, ok
}

// bit extracts bit i (MSB first) from a byte slice.
func bit(b []byte, i int) int {
	return int(b[i/8]>>(7-i%8)) & 1
}
