// Package ipam implements the IP address management substrate: allocation
// of prefixes and host addresses out of registry-style pools, and the
// aggregation helpers the paper reports on (counting distinct IPv4 /24s
// and IPv6 /56s per provider, Table 1).
//
// Everything is built on net/netip: addresses are comparable values and can
// be used directly as map keys, mirroring how gopacket models endpoints.
package ipam

import (
	"fmt"
	"math/big"
	"net/netip"
	"sort"
)

// Pool hands out sub-prefixes and host addresses from one supernet, e.g.
// a provider's 52.0.0.0/11 or a cloud region's /16. Allocation is strictly
// sequential, which keeps worlds deterministic.
type Pool struct {
	supernet netip.Prefix
	// nextSub is the index of the next sub-prefix of size subBits to carve.
	nextSub uint64
}

// NewPool returns a Pool carving from supernet. The prefix is normalized
// with Masked.
func NewPool(supernet netip.Prefix) *Pool {
	return &Pool{supernet: supernet.Masked()}
}

// AllocPrefix carves the next unused sub-prefix with the given length.
// It returns an error when the pool is exhausted or bits is shorter than
// the supernet length.
func (p *Pool) AllocPrefix(bits int) (netip.Prefix, error) {
	super := p.supernet
	if bits < super.Bits() {
		return netip.Prefix{}, fmt.Errorf("ipam: prefix /%d larger than pool %v", bits, super)
	}
	addrBits := super.Addr().BitLen()
	if bits > addrBits {
		return netip.Prefix{}, fmt.Errorf("ipam: /%d longer than address width %d", bits, addrBits)
	}
	span := bits - super.Bits()
	if span < 64 && p.nextSub >= 1<<uint(span) {
		return netip.Prefix{}, fmt.Errorf("ipam: pool %v exhausted at /%d", super, bits)
	}
	// The sub-prefix index occupies the bits between the supernet length
	// and the target length.
	base := addrToBig(super.Addr())
	idx := new(big.Int).SetUint64(p.nextSub)
	idx.Lsh(idx, uint(addrBits-bits))
	base.Or(base, idx)
	addr, err := bigToAddr(base, addrBits)
	if err != nil {
		return netip.Prefix{}, err
	}
	p.nextSub++
	return netip.PrefixFrom(addr, bits), nil
}

// MustAllocPrefix is AllocPrefix that panics on error; world construction
// uses it because pool sizing is a static property of the generator.
func (p *Pool) MustAllocPrefix(bits int) netip.Prefix {
	pfx, err := p.AllocPrefix(bits)
	if err != nil {
		panic(err)
	}
	return pfx
}

// HostSeq enumerates host addresses inside a prefix, skipping the network
// address (offset 0) so generated servers never sit on the prefix base.
type HostSeq struct {
	prefix netip.Prefix
	next   uint64
}

// Hosts returns a HostSeq over prefix.
func Hosts(prefix netip.Prefix) *HostSeq {
	return &HostSeq{prefix: prefix.Masked(), next: 1}
}

// Next returns the next host address, or an invalid Addr when the prefix
// is exhausted.
func (h *HostSeq) Next() netip.Addr {
	span := h.prefix.Addr().BitLen() - h.prefix.Bits()
	if span < 64 && h.next >= 1<<uint(span) {
		return netip.Addr{}
	}
	base := addrToBig(h.prefix.Addr())
	base.Add(base, new(big.Int).SetUint64(h.next))
	addr, err := bigToAddr(base, h.prefix.Addr().BitLen())
	if err != nil {
		return netip.Addr{}
	}
	h.next++
	return addr
}

// AggregateKey maps an address to the aggregation prefix the paper uses:
// /24 for IPv4 and /56 for IPv6 (Table 1's "# IPv4 /24 (IPv6 /56)").
func AggregateKey(a netip.Addr) netip.Prefix {
	if a.Is4() || a.Is4In6() {
		return netip.PrefixFrom(a.Unmap(), 24).Masked()
	}
	return netip.PrefixFrom(a, 56).Masked()
}

// CountAggregates returns the number of distinct IPv4 /24s and IPv6 /56s
// covering the given addresses.
func CountAggregates(addrs []netip.Addr) (v4 int, v6 int) {
	seen := make(map[netip.Prefix]struct{}, len(addrs))
	for _, a := range addrs {
		if !a.IsValid() {
			continue
		}
		k := AggregateKey(a)
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		if k.Addr().Is4() {
			v4++
		} else {
			v6++
		}
	}
	return v4, v6
}

// Split partitions addrs into IPv4 and IPv6 groups (4-in-6 counts as v4).
func Split(addrs []netip.Addr) (v4, v6 []netip.Addr) {
	for _, a := range addrs {
		if !a.IsValid() {
			continue
		}
		if a.Is4() || a.Is4In6() {
			v4 = append(v4, a.Unmap())
		} else {
			v6 = append(v6, a)
		}
	}
	return v4, v6
}

// SortAddrs orders addresses in the natural netip order, deduplicating in
// place. It returns the deduplicated slice.
func SortAddrs(addrs []netip.Addr) []netip.Addr {
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	out := addrs[:0]
	var prev netip.Addr
	for _, a := range addrs {
		if a == prev && len(out) > 0 {
			continue
		}
		out = append(out, a)
		prev = a
	}
	return out
}

func addrToBig(a netip.Addr) *big.Int {
	b := a.AsSlice()
	return new(big.Int).SetBytes(b)
}

func bigToAddr(v *big.Int, bits int) (netip.Addr, error) {
	n := bits / 8
	buf := make([]byte, n)
	vb := v.Bytes()
	if len(vb) > n {
		return netip.Addr{}, fmt.Errorf("ipam: value overflows %d-bit address", bits)
	}
	copy(buf[n-len(vb):], vb)
	addr, ok := netip.AddrFromSlice(buf)
	if !ok {
		return netip.Addr{}, fmt.Errorf("ipam: bad address length %d", n)
	}
	return addr, nil
}
