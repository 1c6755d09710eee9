package flows

import (
	"maps"
	"math/bits"
	"net/netip"
	"slices"

	"iotmap/internal/isp"
	"iotmap/internal/proto"
)

// Dense-ID plumbing: every aggregate in this package indexes flat
// slices and bitsets by small integer IDs instead of hashing
// netip.Addr/string keys per record. Three ID spaces exist:
//
//   - backend IDs and alias IDs are global, assigned deterministically
//     by BackendIndex at build time (sorted order), so every counter
//     and collector over one index agrees on them — bitset merges need
//     no translation.
//   - line IDs are local to each aggregate (a lineTab), assigned in
//     first-contact order. Plan addresses (isp.LineSlot) resolve by bit
//     arithmetic plus one slice load; anything else falls back to a
//     map. Merges remap donor line IDs through the donor's reverse
//     table, so shard- and vantage-crossing folds stay exact.
//   - port IDs are local to each Collector (portTab), remapped on merge
//     like line IDs.
//
// Nothing converts back wholesale: the Study accessors resolve the one
// alias or port they are asked about and read the columns by ID, which
// keeps the figure outputs byte-identical to the historical map-keyed
// aggregation.

// planTabCap bounds the flat per-vantage plan tables a lineTab grows: a
// hostile or recorded feed carrying a plan-shaped address with a huge
// line index must not force a multi-hundred-MB table. Slots at or above
// the cap take the map fallback instead (correct, just not O(1)).
const planTabCap = 1 << 22

// lineTab interns line addresses into a compact local ID space.
type lineTab struct {
	// plan maps a vantage's plan slot (isp.LineSlot) to local ID+1.
	plan [isp.MaxVantages][]int32
	// other holds the IDs of non-plan addresses (nil until needed).
	other map[netip.Addr]int32
	// addrs is the reverse table: local ID → address.
	addrs []netip.Addr
}

// id interns a and returns its local ID; new addresses get
// len(addrs)-1 in call order.
func (t *lineTab) id(a netip.Addr) int32 {
	if v, slot, ok := isp.LineSlot(a); ok && slot < planTabCap {
		s := t.plan[v]
		if int(slot) >= len(s) {
			s = grown(s, int(slot)+1)
			t.plan[v] = s
		}
		if id := s[slot]; id != 0 {
			return id - 1
		}
		id := int32(len(t.addrs))
		t.addrs = append(t.addrs, a)
		s[slot] = id + 1
		return id
	}
	if id, ok := t.other[a]; ok {
		return id
	}
	if t.other == nil {
		t.other = map[netip.Addr]int32{}
	}
	id := int32(len(t.addrs))
	t.other[a] = id
	t.addrs = append(t.addrs, a)
	return id
}

// drop removes the addresses whose remap entry is -1 and renumbers the
// others to their entries, which ascend, so the reverse table compacts
// in place.
func (t *lineTab) drop(remap []int32) {
	n := 0
	for l, a := range t.addrs {
		id := remap[l]
		switch v, slot, ok := isp.LineSlot(a); {
		case ok && slot < planTabCap:
			t.plan[v][slot] = id + 1
		case id < 0:
			delete(t.other, a)
		default:
			t.other[a] = id
		}
		if id >= 0 {
			t.addrs[id] = a
			n = int(id) + 1
		}
	}
	t.addrs = truncZero(t.addrs, n)
}

// reserve makes room for n addresses and for every plan slot likes'
// tables reach.
func (t *lineTab) reserve(n int, likes ...*lineTab) {
	t.addrs = reserve(t.addrs, n)
	for v := range t.plan {
		slots := 0
		for _, like := range likes {
			slots = max(slots, len(like.plan[v]))
		}
		t.plan[v] = reserve(t.plan[v], slots)
	}
}

func (t *lineTab) clone() lineTab {
	var out lineTab
	for v, s := range t.plan {
		if s != nil {
			out.plan[v] = append([]int32(nil), s...)
		}
	}
	if t.other != nil {
		out.other = maps.Clone(t.other)
	}
	if t.addrs != nil {
		out.addrs = append([]netip.Addr(nil), t.addrs...)
	}
	return out
}

// portTab interns (transport, port) pairs into local IDs through a
// lazily paged direct table — the fold resolves one per row, and
// it is the window's read path too, so the lookup must not hash.
type portTab struct {
	// pages maps [transport][port>>8] to a page of local ID+1 (0 = not
	// interned), allocated on the first port in its range.
	pages [2][256]*[256]int32
	keys  []proto.PortKey
}

func (t *portTab) id(k proto.PortKey) int32 {
	pg := t.pages[k.Transport][k.Port>>8]
	if pg == nil {
		pg = new([256]int32)
		t.pages[k.Transport][k.Port>>8] = pg
	}
	if id := pg[k.Port&0xff]; id != 0 {
		return id - 1
	}
	id := int32(len(t.keys))
	t.keys = append(t.keys, k)
	pg[k.Port&0xff] = id + 1
	return id
}

func (t *portTab) clone() portTab {
	out := portTab{keys: slices.Clone(t.keys)}
	for tr := range t.pages {
		for i, pg := range t.pages[tr] {
			if pg != nil {
				cp := *pg
				out.pages[tr][i] = &cp
			}
		}
	}
	return out
}

// grown extends s to length n, preserving contents and zeroing the new
// tail; growth doubles capacity so repeated one-slot extensions stay
// amortized O(1). Slices managed by grown are only ever extended, so
// re-slicing within capacity re-exposes zeroed memory.
func grown[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	ns := make([]T, n, c)
	copy(ns, s)
	return ns
}

// extend returns *col grown to length n at least, storing the header
// back only when it grew.
func extend[T any](col *[]T, n int) []T {
	if n > len(*col) {
		*col = grown(*col, n)
	}
	return *col
}

// reserve returns s with capacity for at least n elements, its length
// and contents kept and the tail zeroed, so a column whose final size
// is known grows by grown within capacity instead of doubling.
func reserve[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	ns := make([]T, len(s), n)
	copy(ns, s)
	return ns
}

// --- bitset helpers ------------------------------------------------------

func setBit(s []uint64, i int) { s[i>>6] |= 1 << (uint(i) & 63) }

func clearBit(s []uint64, i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

func hasBit(s []uint64, i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

func popcount(s []uint64) int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

func orBits(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

func clearBits(s []uint64) {
	for i := range s {
		s[i] = 0
	}
}

// forEachBit calls fn with every set bit's index, ascending.
func forEachBit(words []uint64, fn func(int)) {
	for wi, w := range words {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
