package flows

import (
	"cmp"
	"math"
	"math/bits"
	"net/netip"
	"slices"
	"time"

	"iotmap/internal/analysis"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
	"iotmap/internal/proto"
)

// lineSide splits a record into its subscriber address and backend
// endpoint, returning the backend's dense ID and flow direction
// (down=true when the backend is the source). ok=false when neither
// endpoint is an indexed backend. Dst takes precedence; every
// classification in this package goes through here so exclusion and
// aggregation always agree on which side is the subscriber.
func (b *BackendIndex) lineSide(r netflow.Record) (line netip.Addr, backendID int32, down, ok bool) {
	if hit, found := b.info[r.Dst]; found {
		// down mirrors the historical `backend == r.Src` test: on a
		// Dst-hit that is only true for the degenerate Src==Dst record.
		return r.Src, hit.id, r.Src == r.Dst, true
	}
	if hit, found := b.info[r.Src]; found {
		return r.Dst, hit.id, true, true
	}
	return line, -1, false, false
}

// Merge folds the donors' contact sets into c, in order, remapping each
// donor's line IDs through its reverse table. Merging shard partials in
// any order yields the same counter as a sequential pass over the
// concatenated streams.
func (c *ContactCounter) Merge(donors ...*ContactCounter) {
	c.idx.checkGen(c.gen)
	if len(donors) == 0 {
		return
	}
	lines, tabs := len(c.lines.addrs), make([]*lineTab, len(donors))
	for i, o := range donors {
		c.idx.checkGen(o.gen)
		lines += len(o.lines.addrs)
		tabs[i] = &o.lines
	}
	c.reserveLines(lines, tabs...)
	for _, o := range donors {
		for i, a := range o.lines.addrs {
			c.orContacts(int(c.lineID(a)), o.lineBits(i))
		}
	}
}

// Merge folds the donors' aggregates into c, in order. All collectors
// must have been built over the same index, study period, and Options
// (in particular the same focus alias — a donor with a different focus
// has its focus series dropped). All aggregates are sums, sets, or
// element-wise series additions, and the summed volumes are
// integer-valued float64s (sampled bytes × rate), so as long as no
// accumulated total exceeds 2^53 (≈9 PB of scaled volume — three to
// five orders of magnitude above the paper-calibrated 1:100..1:1000
// simulation scales; only approachable near isp's 2^24-line ceiling)
// the merge is exact and order-independent: merging shard partials
// reproduces a sequential ingest byte-for-byte regardless of shard
// count. Backend and alias IDs are global (assigned by the shared
// index), so bitsets OR directly; the donors' line and port IDs are
// local and remap through their reverse tables.
//
// Every column is sized once for all donors: the per-line columns and
// slot arenas for the sum of the line and slot counts (exact when the
// donors hold disjoint lines, as shards and vantages do), and, since
// every donor line is interned before any row folds, the focus hour and
// port-line columns for the merged line count.
//
// Merge consumes the donors: a donor's visible sets and hourly volume
// series are adopted by reference where c has none, not copied, so a
// donor must not be ingested into or merged again. Everything else of a
// donor is only read.
func (c *Collector) Merge(donors ...*Collector) {
	c.idx.checkGen(c.gen)
	c.checkWritable()
	if len(donors) == 0 {
		return
	}
	lines, la, lp := len(c.lines.addrs), len(c.laKeys), len(c.lpKeys)
	tabs := make([]*lineTab, len(donors))
	for i, o := range donors {
		c.idx.checkGen(o.gen)
		o.checkWritable()
		lines += len(o.lines.addrs)
		la += len(o.laKeys)
		lp += len(o.lpKeys)
		tabs[i] = &o.lines
	}
	c.reserveLines(lines, tabs...)
	c.laKeys, c.laDaily, c.laHours = reserve(c.laKeys, la), reserve(c.laDaily, la*c.ds), reserve(c.laHours, la*c.hw)
	c.lpKeys, c.lpDaily = reserve(c.lpKeys, lp), reserve(c.lpDaily, lp*c.ds)

	// Remap donor line/port IDs into c's spaces (interning as needed).
	remaps, portRemaps := make([][]int32, len(donors)), make([][]int32, len(donors))
	var lpLen []int // per port ID: the length its line table reaches
	for i, o := range donors {
		remaps[i] = make([]int32, len(o.lines.addrs))
		for l, a := range o.lines.addrs {
			remaps[i][l] = c.lineID(a)
		}
		portRemaps[i] = make([]int32, len(o.ports.keys))
		for p, k := range o.ports.keys {
			portRemaps[i][p] = c.ports.id(k)
		}
		lpLen = grown(lpLen, len(c.ports.keys))
		for _, k := range o.lpKeys {
			p := portRemaps[i][k.port]
			lpLen[p] = max(lpLen[p], int(remaps[i][k.line])+1)
		}
	}
	for p, n := range lpLen {
		if n > 0 {
			for len(c.lpIdx) <= p {
				c.lpIdx = append(c.lpIdx, nil)
			}
			c.lpIdx[p] = reserve(c.lpIdx[p], n)
		}
	}
	for i, o := range donors {
		c.merge(o, remaps[i], portRemaps[i])
	}
}

// merge folds one donor whose lines and ports are interned in c.
func (c *Collector) merge(o *Collector, remap, portRemap []int32) {
	ds2 := 2 * c.ds
	for i, t := range remap {
		for d := 0; d < ds2; d++ {
			c.lineDaily[int(t)*ds2+d] += o.lineDaily[i*ds2+d]
		}
		c.lineConts[t] |= o.lineConts[i]
		orBits(c.lineAliasBits[int(t)*c.aw:(int(t)+1)*c.aw], o.lineAliasBits[i*c.aw:(i+1)*c.aw])
		orBits(c.lineCertBits[int(t)*c.aw:(int(t)+1)*c.aw], o.lineCertBits[i*c.aw:(i+1)*c.aw])
	}

	for a := 0; a < c.nAliases; a++ {
		if src := o.visible[a]; src != nil {
			if c.visible[a] == nil {
				c.visible[a] = src
			} else {
				orBits(c.visible[a], src)
			}
		}
		if o.activeLines[a] != nil && c.activeLines[a] == nil {
			c.activeLines[a] = analysis.NewSeries(c.idx.aliasNames[a], c.hours)
		}
		mergeSeriesAt(c.downHour, o.downHour, a)
		mergeSeriesAt(c.upHour, o.upHour, a)
		if src := o.portVol[a]; len(src) > 0 {
			forEachBit(o.portSeen[a], func(pid int) {
				t := int(portRemap[pid])
				extend(&c.portVol[a], t+1)[t] += src[pid]
				setBit(extend(&c.portSeen[a], t>>6+1), t)
			})
		}
	}

	for s, k := range o.laKeys {
		t := c.laSlot(int(remap[k.line]), int(k.alias))
		for d := 0; d < c.ds; d++ {
			c.laDaily[t*c.ds+d] += o.laDaily[s*c.ds+d]
		}
		orHours(c.laHours[t*c.hw:(t+1)*c.hw], o.laHours[s*c.hw:(s+1)*c.hw], c.activeLines[k.alias])
	}
	for s, k := range o.lpKeys {
		base := c.lpSlotBase(int(remap[k.line]), int(portRemap[k.port]))
		for d := 0; d < c.ds; d++ {
			c.lpDaily[base+d] += o.lpDaily[s*c.ds+d]
		}
	}

	forEachBit(o.backendSeen, func(b int) { c.backendVol[b] += o.backendVol[b] })
	orBits(c.backendSeen, o.backendSeen)
	orBits(c.coverBits, o.coverBits)

	if c.focusAlias != "" && o.focusAlias == c.focusAlias {
		addValues(c.focusDownRegion, o.focusDownRegion)
		addValues(c.focusDownEU, o.focusDownEU)
		c.focusHoursRegion = mergeLineHours(c.focusHoursRegion, c.focusLinesRegion, o.focusHoursRegion, remap, c.hw, len(c.lines.addrs))
		c.focusHoursEU = mergeLineHours(c.focusHoursEU, c.focusLinesEU, o.focusHoursEU, remap, c.hw, len(c.lines.addrs))
	}
}

// mergeLineHours ORs a donor's per-line hour bitsets into dst at the
// remapped line IDs, counting each bit new to dst into active. dst grows
// to nLines, the merged line count, at the first donor that touches it,
// and exactly: no later donor grows it again.
func mergeLineHours(dst []uint64, active *analysis.Series, src []uint64, remap []int32, hw, nLines int) []uint64 {
	if len(src) == 0 {
		return dst
	}
	dst = grown(reserve(dst, nLines*hw), nLines*hw)
	for i := 0; i < len(src)/hw; i++ {
		t := int(remap[i])
		orHours(dst[t*hw:(t+1)*hw], src[i*hw:(i+1)*hw], active)
	}
	return dst
}

// orHours ORs the hour bitset src into dst, counting each bit new to dst
// into active.
func orHours(dst, src []uint64, active *analysis.Series) {
	for k, w := range src {
		for added := w &^ dst[k]; added != 0; added &= added - 1 {
			active.Values[k<<6+bits.TrailingZeros64(added)]++
		}
		dst[k] |= w
	}
}

// mergeSeriesAt folds src[a] into dst[a], adopting the donor series
// when the receiver has none.
func mergeSeriesAt(dst, src []*analysis.Series, a int) {
	s := src[a]
	if s == nil {
		return
	}
	if dst[a] == nil {
		dst[a] = s
		return
	}
	addValues(dst[a], s)
}

func addValues(dst, src *analysis.Series) {
	for h, v := range src.Values {
		dst.Values[h] += v
	}
}

// --- Deep copies --------------------------------------------------------
//
// The clones live next to Merge on purpose: clone, Merge, and the
// Collector struct must enumerate the same aggregate fields, and
// TestCollectorCloneComplete fails loudly if a future field reaches the
// struct and Merge without reaching clone.

// clone deep-copies the counter so the copy can be consumed by a merge
// while the original stays usable.
func (c *ContactCounter) clone() *ContactCounter {
	return &ContactCounter{
		idx:   c.idx,
		gen:   c.gen,
		words: c.words,
		lines: c.lines.clone(),
		bits:  cloneSlice(c.bits),
		n:     cloneSlice(c.n),
	}
}

// clone deep-copies every aggregate; the index and study days are
// immutable after construction and stay shared.
func (c *Collector) clone() *Collector {
	out := &Collector{
		idx:          c.idx,
		gen:          c.gen,
		days:         c.days,
		hours:        c.hours,
		rate:         c.rate,
		focusAlias:   c.focusAlias,
		focusRegion:  c.focusRegion,
		focusAliasID: c.focusAliasID,
		ds:           c.ds,
		hw:           c.hw,
		aw:           c.aw,
		nAliases:     c.nAliases,
		coverBits:    cloneSlice(c.coverBits),

		lines: c.lines.clone(),
		ports: c.ports.clone(),

		lineDaily:     cloneSlice(c.lineDaily),
		lineConts:     cloneSlice(c.lineConts),
		lineAliasBits: cloneSlice(c.lineAliasBits),
		lineCertBits:  cloneSlice(c.lineCertBits),
		laIdx:         cloneSlice(c.laIdx),

		visible:     cloneNested(c.visible),
		activeLines: cloneSeriesSlice(c.activeLines),
		downHour:    cloneSeriesSlice(c.downHour),
		upHour:      cloneSeriesSlice(c.upHour),
		portVol:     cloneNested(c.portVol),
		portSeen:    cloneNested(c.portSeen),

		laDaily: cloneSlice(c.laDaily),
		laHours: cloneSlice(c.laHours),
		laKeys:  append([]laKey(nil), c.laKeys...),
		lpIdx:   cloneNested(c.lpIdx),
		lpDaily: cloneSlice(c.lpDaily),
		lpKeys:  append([]lpKey(nil), c.lpKeys...),

		backendVol:  cloneSlice(c.backendVol),
		backendSeen: cloneSlice(c.backendSeen),

		focusDownRegion:  cloneSeries(c.focusDownRegion),
		focusDownEU:      cloneSeries(c.focusDownEU),
		focusHoursRegion: cloneSlice(c.focusHoursRegion),
		focusHoursEU:     cloneSlice(c.focusHoursEU),
		focusLinesRegion: cloneSeries(c.focusLinesRegion),
		focusLinesEU:     cloneSeries(c.focusLinesEU),

		backends: c.backends,
		runBits:  make([]uint64, len(c.runBits)),
	}
	return out
}

// donor returns a copy of c for Merge to consume that leaves c as it
// is: it shares the columns Merge only reads of a donor and copies the
// ones Merge adopts by reference, the visible sets and the hourly volume
// series.
func (c *Collector) donor() *Collector {
	d := *c
	d.visible = cloneNested(c.visible)
	d.downHour, d.upHour = cloneSeriesSlice(c.downHour), cloneSeriesSlice(c.upHour)
	return &d
}

func cloneSlice[T int32 | uint8 | uint64 | float64](s []T) []T {
	if s == nil {
		return nil
	}
	return append([]T(nil), s...)
}

func cloneNested[T int32 | uint8 | uint64 | float64](s [][]T) [][]T {
	if s == nil {
		return nil
	}
	out := make([][]T, len(s))
	for i, inner := range s {
		out[i] = cloneSlice(inner)
	}
	return out
}

func cloneSeries(s *analysis.Series) *analysis.Series {
	if s == nil {
		return nil
	}
	return &analysis.Series{Label: s.Label, Values: append([]float64(nil), s.Values...)}
}

func cloneSeriesSlice(s []*analysis.Series) []*analysis.Series {
	out := make([]*analysis.Series, len(s))
	for i, ser := range s {
		out[i] = cloneSeries(ser)
	}
	return out
}

// --- Sliding a fold -----------------------------------------------------
//
// A Window's cached fold slides to a later frame instead of being
// re-folded: the rows of the hours it leaves are subtracted, and every
// hour-indexed column shifts. Volumes subtract exactly for the reason
// Merge adds exactly. Set members cannot be subtracted, so rowCounts
// counts the rows behind every member, and a member leaves its set when
// its count reaches zero. Like clone, these helpers enumerate the
// Collector's aggregates, so they live here.

// rowCounts counts the rows behind every set member of a fold.
type rowCounts struct {
	// contacts is, per counter line, the backends the line's rows
	// reach in ascending order, with the rows and the kept rows of
	// each: the ContactCounter's bits, and the kept ones behind the
	// Collector's per-line alias, cert and continent sets. It is sparse
	// because a line reaches few backends, where a dense (line,
	// backend) count would cost megabytes.
	contacts [][]pairCount

	backend   []int32   // per backend ID: visible, backendSeen
	aliasDir  []int32   // per (alias, up), stride 2: downHour, upHour
	aliasPort [][]int32 // per alias, per port ID: portSeen
	port      []int32   // per port ID: the port table
	laSlot    []int32   // per (line, alias) slot
	lpSlot    []int32   // per (line, port) slot (down rows)

	// emptied notes what a slide emptied since the last compaction, so
	// compaction runs only the drop passes that have something to drop.
	emptied uint8
}

// rowCounts.emptied bits: a counter line lost its last contact, a
// collector line its last kept row, a slot, a port or an (alias,
// direction) its last row.
const (
	emptiedContacts uint8 = 1 << iota
	emptiedLines
	emptiedSlots
	emptiedPorts
	emptiedAliases
)

type pairCount struct{ backend, rows, kept int32 }

func cmpPair(p pairCount, backend int32) int { return cmp.Compare(p.backend, backend) }

// countContact records one row of counter line l with the backend.
func (n *rowCounts) countContact(l int, backend int32, kept bool) {
	n.contacts = grown(n.contacts, l+1)
	ps := n.contacts[l]
	i, ok := slices.BinarySearchFunc(ps, backend, cmpPair)
	if !ok {
		ps = slices.Insert(ps, i, pairCount{backend: backend})
		n.contacts[l] = ps
	}
	ps[i].rows++
	if kept {
		ps[i].kept++
	}
}

// uncountContact removes one row of counter line l with the backend and
// reports whether it was the pair's last row, and its last kept row.
func (n *rowCounts) uncountContact(l int, backend int32, kept bool) (lastRow, lastKept bool) {
	ps := n.contacts[l]
	i, _ := slices.BinarySearchFunc(ps, backend, cmpPair)
	if kept {
		ps[i].kept--
		lastKept = ps[i].kept == 0
	}
	if ps[i].rows--; ps[i].rows > 0 {
		return false, lastKept
	}
	n.contacts[l] = slices.Delete(ps, i, i+1)
	return true, lastKept
}

func newRowCounts(c *Collector) *rowCounts {
	return &rowCounts{
		backend:   make([]int32, len(c.idx.addrs)),
		aliasDir:  make([]int32, 2*c.nAliases),
		aliasPort: make([][]int32, c.nAliases),
	}
}

// count records one kept row that lineRun.add has just folded into c.
func (n *rowCounts) count(c *Collector, line int, backendID int32, down bool, port proto.PortKey) {
	a := int(c.backends[backendID].alias)
	la := line*c.nAliases + a
	n.backend[backendID]++
	pid := int(c.ports.id(port))
	n.aliasPort[a] = grown(n.aliasPort[a], pid+1)
	n.aliasPort[a][pid]++
	n.port = grown(n.port, pid+1)
	n.port[pid]++
	s := int(c.laIdx[la])
	n.laSlot = grown(n.laSlot, s)
	n.laSlot[s-1]++
	if !down {
		n.aliasDir[2*a+1]++
		return
	}
	n.aliasDir[2*a]++
	s = int(c.lpIdx[pid][line])
	n.lpSlot = grown(n.lpSlot, s)
	n.lpSlot[s-1]++
}

// subtract removes one kept row, folded into day `day`, from c: the
// inverse of lineRun.add for every aggregate not indexed by hour
// (shiftHours drops those) or by line (relink re-derives those). A set
// member whose count reaches zero leaves its set; a slot, port or alias
// left empty stays, noted in n.emptied, until compact drops it.
func (c *Collector) subtract(n *rowCounts, line int, backendID int32, down bool, day int, port proto.PortKey, bytes float64) {
	c.checkWritable()
	a := int(c.backends[backendID].alias)
	la := line*c.nAliases + a
	pid := int(c.ports.id(port))
	c.portVol[a][pid] -= bytes
	c.backendVol[backendID] -= bytes
	if n.backend[backendID]--; n.backend[backendID] == 0 {
		clearBit(c.visible[a], int(backendID))
		clearBit(c.backendSeen, int(backendID))
	}
	if n.aliasPort[a][pid]--; n.aliasPort[a][pid] == 0 {
		clearBit(c.portSeen[a], pid)
	}
	if n.port[pid]--; n.port[pid] == 0 {
		n.emptied |= emptiedPorts
	}
	dir := 2 * a
	if !down {
		dir++
	}
	if n.aliasDir[dir]--; n.aliasDir[dir] == 0 {
		n.emptied |= emptiedAliases
	}
	s := int(c.laIdx[la]) - 1
	if n.laSlot[s]--; n.laSlot[s] == 0 {
		n.emptied |= emptiedSlots
	}
	base := line*2*c.ds + 2*day
	if !down {
		c.lineDaily[base+1] -= bytes
		return
	}
	c.lineDaily[base] -= bytes
	c.laDaily[s*c.ds+day] -= bytes
	s = int(c.lpIdx[pid][line]) - 1
	c.lpDaily[s*c.ds+day] -= bytes
	if n.lpSlot[s]--; n.lpSlot[s] == 0 {
		n.emptied |= emptiedSlots
	}
}

// relink re-derives line's alias, cert and continent sets from the
// backends its kept rows still reach (the line's contacts with kept
// rows), after one of them lost its last kept row, and notes in n a line
// left with none.
func (c *Collector) relink(n *rowCounts, line int, contacts []pairCount) {
	aliases := c.lineAliasBits[line*c.aw : (line+1)*c.aw]
	certs := c.lineCertBits[line*c.aw : (line+1)*c.aw]
	clearBits(aliases)
	clearBits(certs)
	c.lineConts[line] = 0
	for _, p := range contacts {
		if p.kept == 0 {
			continue
		}
		be := c.backends[p.backend]
		setBit(aliases, int(be.alias))
		if be.cert {
			setBit(certs, int(be.alias))
		}
		c.lineConts[line] |= be.cont
	}
	if c.lineConts[line] == 0 { // every backend has a continent bit
		n.emptied |= emptiedLines
	}
}

// moveDay moves one kept row's volume from day `from` to day `to` of
// c's per-day columns.
func (c *Collector) moveDay(line int, backendID int32, down bool, port proto.PortKey, from, to int, bytes float64) {
	c.checkWritable()
	base := line * 2 * c.ds
	if !down {
		c.lineDaily[base+2*from+1] -= bytes
		c.lineDaily[base+2*to+1] += bytes
		return
	}
	c.lineDaily[base+2*from] -= bytes
	c.lineDaily[base+2*to] += bytes
	a := int(c.backends[backendID].alias)
	s := (int(c.laIdx[line*c.nAliases+a]) - 1) * c.ds
	c.laDaily[s+from] -= bytes
	c.laDaily[s+to] += bytes
	s = (int(c.lpIdx[c.ports.id(port)][line]) - 1) * c.ds
	c.lpDaily[s+from] -= bytes
	c.lpDaily[s+to] += bytes
}

// shiftHours moves every hour-indexed column k hours earlier, dropping
// hours [0, k), and re-anchors the collector on days.
func (c *Collector) shiftHours(k int, days []time.Time) {
	c.checkWritable()
	c.days = days
	shiftBits(c.coverBits, k)
	shiftLineBits(c.laHours, c.hw, k)
	for a := range c.activeLines {
		shiftSeries(c.activeLines[a], k)
		shiftSeries(c.downHour[a], k)
		shiftSeries(c.upHour[a], k)
	}
	for _, s := range []*analysis.Series{
		c.focusDownRegion, c.focusDownEU, c.focusLinesRegion, c.focusLinesEU,
	} {
		shiftSeries(s, k)
	}
	shiftLineBits(c.focusHoursRegion, c.hw, k)
	shiftLineBits(c.focusHoursEU, c.hw, k)
}

// shiftBits moves every bit of s k places down: bit i+k becomes bit i.
func shiftBits(s []uint64, k int) {
	q, r := k>>6, uint(k&63)
	for i := range s {
		var v uint64
		if j := i + q; j < len(s) {
			v = s[j] >> r
			if j+1 < len(s) && r > 0 {
				v |= s[j+1] << (64 - r)
			}
		}
		s[i] = v
	}
}

// shiftLineBits applies shiftBits to each stride-hw bitset of s.
func shiftLineBits(s []uint64, hw, k int) {
	for i := 0; i+hw <= len(s); i += hw {
		shiftBits(s[i:i+hw], k)
	}
}

func shiftSeries(s *analysis.Series, k int) {
	if s == nil {
		return
	}
	n := copy(s.Values, s.Values[k:])
	clear(s.Values[n:])
}

// compact drops every line, slot, port and per-alias aggregate whose
// kept rows n counts none of, renumbering what stays in order (and n's
// slot and port counts with it), so c holds exactly what a fold of the
// surviving rows would. Only the passes n.emptied names run: a pass
// over members that all still have rows would renumber nothing. It
// returns the line renumbering (old ID → new ID, -1 dropped), nil when
// no line was dropped.
func (c *Collector) compact(n *rowCounts) []int32 {
	c.checkWritable()
	if n.emptied&emptiedAliases != 0 {
		for a := 0; a < c.nAliases; a++ {
			down, up := n.aliasDir[2*a], n.aliasDir[2*a+1]
			if down == 0 {
				c.downHour[a] = nil
			}
			if up == 0 {
				c.upHour[a] = nil
			}
			if down+up == 0 {
				c.visible[a], c.activeLines[a], c.portVol[a], c.portSeen[a] = nil, nil, nil, nil
			}
		}
	}
	// A dropped port or line has no slot left, once dropSlots has run:
	// its slots emptied too, and said so.
	if n.emptied&emptiedSlots != 0 {
		c.dropSlots(n)
	}
	if n.emptied&emptiedPorts != 0 {
		c.dropPorts(n)
	}
	if n.emptied&emptiedLines != 0 {
		return c.dropLines()
	}
	return nil
}

// dropSlots drops the slots no row is left in.
func (c *Collector) dropSlots(n *rowCounts) {
	remap, j := make([]int32, len(c.laKeys)), int32(0)
	for s, k := range c.laKeys {
		si := int(k.line)*c.nAliases + int(k.alias)
		if remap[s] = -1; n.laSlot[s] > 0 {
			remap[s], c.laKeys[j] = j, k
			j++
		}
		c.laIdx[si] = remap[s] + 1
	}
	c.laKeys = c.laKeys[:j]
	c.laDaily = compactStride(c.laDaily, c.ds, remap)
	c.laHours = compactStride(c.laHours, c.hw, remap)
	n.laSlot = compactStride(n.laSlot, 1, remap)

	remap, j = make([]int32, len(c.lpKeys)), 0
	for s, k := range c.lpKeys {
		if remap[s] = -1; n.lpSlot[s] > 0 {
			remap[s], c.lpKeys[j] = j, k
			j++
		}
		c.lpIdx[k.port][k.line] = remap[s] + 1
	}
	c.lpKeys = c.lpKeys[:j]
	c.lpDaily = compactStride(c.lpDaily, c.ds, remap)
	n.lpSlot = compactStride(n.lpSlot, 1, remap)
}

// dropPorts drops the ports no alias has a row on, renumbering the rest
// in order. Run after dropSlots: a dropped port has no slot left.
func (c *Collector) dropPorts(n *rowCounts) {
	remap := make([]int32, len(c.ports.keys))
	var ports portTab
	for pid, k := range c.ports.keys {
		remap[pid] = -1
		if n.port[pid] > 0 {
			remap[pid] = ports.id(k)
		}
	}
	if len(ports.keys) == len(c.ports.keys) {
		return
	}
	c.ports = ports
	n.port = compactStride(n.port, 1, remap)
	for a, seen := range c.portSeen {
		if seen == nil {
			continue
		}
		vol := make([]float64, len(ports.keys))
		live := make([]uint64, (len(ports.keys)+63)/64)
		forEachBit(seen, func(pid int) {
			vol[remap[pid]] = c.portVol[a][pid]
			setBit(live, int(remap[pid]))
		})
		c.portVol[a], c.portSeen[a] = vol, live
	}
	for a, counts := range n.aliasPort {
		if counts != nil {
			n.aliasPort[a] = compactStride(counts, 1, remap)
		}
	}
	lpIdx := make([][]int32, 0, len(ports.keys))
	for pid, arr := range c.lpIdx {
		if remap[pid] >= 0 {
			lpIdx = grown(lpIdx, int(remap[pid])+1)
			lpIdx[remap[pid]] = arr
		}
	}
	c.lpIdx = lpIdx
	for s := range c.lpKeys {
		c.lpKeys[s].port = remap[c.lpKeys[s].port]
	}
}

// dropLines drops the lines with no kept row left (no alias bit set),
// renumbering the rest in order, and returns the renumbering (nil when
// every line stays). Run after dropSlots: a dropped line has no slot
// left.
func (c *Collector) dropLines() []int32 {
	remap, live := make([]int32, len(c.lines.addrs)), int32(0)
	for l := range remap {
		remap[l] = -1
		for _, w := range c.lineAliasBits[l*c.aw : (l+1)*c.aw] {
			if w != 0 {
				remap[l] = live
				live++
				break
			}
		}
	}
	if int(live) == len(remap) {
		return nil
	}
	c.lines.drop(remap)
	c.lineDaily = compactStride(c.lineDaily, 2*c.ds, remap)
	c.lineConts = compactStride(c.lineConts, 1, remap)
	c.lineAliasBits = compactStride(c.lineAliasBits, c.aw, remap)
	c.lineCertBits = compactStride(c.lineCertBits, c.aw, remap)
	c.laIdx = compactStride(c.laIdx, c.nAliases, remap)
	c.focusHoursRegion = compactStride(c.focusHoursRegion, c.hw, remap)
	c.focusHoursEU = compactStride(c.focusHoursEU, c.hw, remap)
	for p := range c.lpIdx {
		c.lpIdx[p] = compactStride(c.lpIdx[p], 1, remap)
	}
	for s := range c.laKeys {
		c.laKeys[s].line = remap[c.laKeys[s].line]
	}
	for s := range c.lpKeys {
		c.lpKeys[s].line = remap[c.lpKeys[s].line]
	}
	return remap
}

// compactStride moves each stride-wide block l of s to block remap[l]
// (remap numbers the kept blocks in order; -1 drops a block), one copy
// per run of kept blocks, and cuts s after the last kept block, zeroing
// the cut tail so a later grown re-exposes zeros.
func compactStride[T any](s []T, stride int, remap []int32) []T {
	n, blocks := 0, len(s)/stride
	for l := 0; l < blocks; {
		if remap[l] < 0 {
			l++
			continue
		}
		r := l + 1
		for r < blocks && remap[r] >= 0 {
			r++
		}
		n += copy(s[n:], s[l*stride:r*stride])
		l = r
	}
	return truncZero(s, n)
}

// truncZero cuts s to n elements, zeroing the cut tail (see grown).
func truncZero[T any](s []T, n int) []T {
	clear(s[n:])
	return s[:n]
}

// compact drops the lines whose contact set is empty (their rows all
// left a sliding fold), renumbering the rest in order, and returns the
// renumbering (old ID → new ID, -1 dropped), nil when every line stays.
func (c *ContactCounter) compact() []int32 {
	remap, live := make([]int32, len(c.lines.addrs)), int32(0)
	for l := range remap {
		remap[l] = -1
		if c.n[l] > 0 {
			remap[l] = live
			live++
		}
	}
	if int(live) == len(remap) {
		return nil
	}
	c.bits = compactStride(c.bits, c.words, remap)
	c.n = compactStride(c.n, 1, remap)
	c.lines.drop(remap)
	return remap
}

// ShardPartial is the aggregation half of one producer — a simulation
// worker or a wire stream — in the single-pass pipeline: each flush
// interval (one line-week, a few hundred rows — never the whole feed)
// arrives as a RecordBatch, and IngestBatch classifies each of its line
// addresses against the scanner threshold, folds the contact evidence
// into the shard's ContactCounter, and forwards only non-scanner
// addresses' rows into the shard's Collector. A partial is owned by
// exactly one producer; no locking. Its two aggregates have one writer
// each, so the producer may run the decode half (Classify: the
// ContactCounter) on its own goroutine and the fold half (FoldKept: the
// Collector) on another.
type ShardPartial struct {
	// Vantage is the vantage-point label the partial's records were
	// observed at (Options.Vantage); FederatedMerge groups partials by
	// it. All partials of one ShardedAggregator share one vantage.
	Vantage string

	idx       *BackendIndex
	threshold int
	// hours is the Collector's study length, copied so the decode half
	// never reads the Collector while the fold half writes it: sharing
	// those cache lines between two cores cost more than the split
	// saved.
	hours int
	cc    *ContactCounter
	col   *Collector
	// kept is IngestBatch's copy of the caller's batch, which Classify
	// compacts in place.
	kept netflow.RecordBatch
	// rec/recBatch are the Ingest/EndLine drive's own tables and pending
	// flush interval; rows are IngestLine's tables.
	rec      *WireTables
	recBatch netflow.RecordBatch
	rows     *WireTables
}

// NewShardPartial builds one worker-local partial over idx — exactly
// the unit NewShardedAggregator allocates per shard, exported for
// drivers whose worker count is not known up front (the NetFlow wire
// collector opens one partial per accepted stream). opts follows the
// same rules as NewShardedAggregator; merge the partials with
// MergePartials.
func NewShardPartial(idx *BackendIndex, days []time.Time, opts Options) *ShardPartial {
	threshold := opts.ScannerThreshold
	if threshold <= 0 {
		// Zero keeps the legacy Options zero-value meaning: exclude
		// nothing (a 0 threshold would otherwise drop every active line).
		threshold = math.MaxInt
	}
	p := &ShardPartial{
		Vantage:   opts.Vantage,
		idx:       idx,
		threshold: threshold,
		hours:     len(days) * 24,
		cc:        NewContactCounter(idx),
		col:       NewCollector(idx, days, opts),
	}
	p.rec = p.NewWireTables()
	return p
}

// MergePartials folds the partials, in slice order, into one
// ContactCounter and Collector. All partials must share idx, days, and
// Options, and every line given to Ingest must have been completed
// with EndLine. The fold consumes the partials (donor aggregates may be
// adopted by reference); both merges are order-independent, so any
// stable partition of the feed yields byte-identical results. parts
// must be non-empty.
func MergePartials(parts []*ShardPartial) (*ContactCounter, *Collector) {
	ccs, cols := make([]*ContactCounter, len(parts)), make([]*Collector, len(parts))
	for i, p := range parts {
		ccs[i], cols[i] = p.cc, p.col
	}
	ccs[0].Merge(ccs[1:]...)
	cols[0].Merge(cols[1:]...)
	return ccs[0], cols[0]
}

// Ingest resolves one record of the line currently being simulated
// into the pending flush interval. Ingest and EndLine, the record
// adapter over the partial's two halves, stay for the benchmark
// module's pin.
func (p *ShardPartial) Ingest(r netflow.Record) { p.rec.AppendRecord(&p.recBatch, r) }

// EndLine completes the pending line-week: Figure 5 contact counting
// always sees the line, the Collector only when the address stays at or
// below the scanner threshold (the Richter-style exclusion, applied the
// moment the per-line evidence is complete).
func (p *ShardPartial) EndLine() {
	p.ingest(p.rec, &p.recBatch)
	p.recBatch.Reset()
}

// ShardedAggregator drives the analysis side of the single-pass
// pipeline: one ShardPartial per simulation worker, merged in shard
// order once the simulation completes. The merged result is
// byte-identical to a sequential ContactCounter pass plus a Collector
// pass with the counter's over-threshold addresses excluded — over the
// same single feed.
type ShardedAggregator struct {
	parts []*ShardPartial
	// merged caches the Merge result: merging folds partials into
	// shard 0 in place (and adopts donor aggregates by reference), so it
	// must run exactly once.
	merged bool
	cc     *ContactCounter
	col    *Collector
}

// NewShardedAggregator builds `shards` worker-local partials over idx.
// opts applies to every partial's Collector; opts.ScannerThreshold
// controls the per-line exclusion.
func NewShardedAggregator(idx *BackendIndex, days []time.Time, opts Options, shards int) *ShardedAggregator {
	if shards < 1 {
		shards = 1
	}
	a := &ShardedAggregator{parts: make([]*ShardPartial, shards)}
	for i := range a.parts {
		a.parts[i] = NewShardPartial(idx, days, opts)
	}
	return a
}

// Shards returns the shard count; drive the simulation with exactly
// this many workers (isp.Network.EmitLines(a.Shards(), ...)).
func (a *ShardedAggregator) Shards() int { return len(a.parts) }

// Simulate folds net's week into the shards, one simulation worker per
// shard: memory mode's drive, the simulator's rows into IngestLine.
func (a *ShardedAggregator) Simulate(net *isp.Network) {
	backends := net.BackendAddrs()
	net.EmitLines(len(a.parts), func(shard int, line *isp.Line, rows *netflow.RecordBatch) {
		var buf [2]netip.Addr
		a.parts[shard].IngestLine(backends, line.AppendAddrs(buf[:0]), rows)
	})
}

// Shard returns worker i's partial.
func (a *ShardedAggregator) Shard(i int) *ShardPartial { return a.parts[i] }

// Merge folds every shard partial, in shard order, into the final
// ContactCounter and Collector. The fold consumes the partials (donor
// aggregates may be adopted by reference, not copied), so repeated
// calls return the cached first result.
func (a *ShardedAggregator) Merge() (*ContactCounter, *Collector) {
	if a.merged {
		return a.cc, a.col
	}
	a.merged = true
	a.cc, a.col = MergePartials(a.parts)
	return a.cc, a.col
}
