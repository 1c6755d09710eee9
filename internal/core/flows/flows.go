// Package flows implements the ISP traffic analyses of Section 5 and the
// outage view of Section 6.1 over a single pass of the sampled NetFlow
// feed. Scanner identification (Figure 5, following Richter et al.) is a
// per-line property — the distinct-backend count of one subscriber
// address over the week — so the sharded pipeline (ShardedAggregator)
// classifies each line the moment its week completes and folds only
// non-scanner contributions into the full aggregation, which produces
// backend visibility (Figure 6), TLS-only detectability (Figure 7),
// hourly activity and volume series (Figures 8-10, 15-16), port mixes
// (Figure 11), per-line daily volume distributions (Figure 12), and the
// cross-continent breakdowns (Figures 13-14).
//
// Aggregation is dense-ID end to end: BackendIndex assigns every
// validated backend (and alias) a deterministic dense integer at build
// time, subscriber addresses intern to per-aggregate line IDs via the
// arithmetic isp address plan (map fallback for foreign addresses), and
// ContactCounter/Collector keep bitsets and stride-packed slices
// instead of nested address-keyed maps — see dense.go. Study()
// materializes nothing: it finalizes the collector (no ingest or merge
// afterwards) and hands out a read-only view over the same columns,
// whose accessors each resolve the one alias or port they are asked
// about. Nothing a figure prints depends on line- or port-ID order, so
// every figure is byte-identical to the historical map-keyed
// implementation.
//
// Both ContactCounter and Collector are shard-mergeable: every
// aggregate is a sum, set, or series whose merge is order-independent
// (volumes are uint64 sums of rowVol, so addition is exact for every
// counter), and finalization sorts wherever order could leak — a merged
// N-shard run is byte-identical to a sequential one. Floats appear only
// where a Study divides or hands out a series.
//
// Provider identities are anonymized to their aliases (T1..T4, D1..D6,
// O1..O6) before anything enters the collector, mirroring the paper's
// agreement with the ISP (Section 3.7).
package flows

import (
	"math/bits"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iotmap/internal/geo"
	"iotmap/internal/proto"
)

// backendInfo is everything the collector knows about one backend IP,
// including its dense IDs once the index is built.
type backendInfo struct {
	alias     string
	cont      geo.Continent
	region    string
	certFound bool
	// id and aliasID are the dense identifiers Build assigns; valid only
	// while the index is built (Add invalidates them).
	id      int32
	aliasID int32
}

// BackendIndex is the collector's view of the discovered, validated
// backend IPs: owner alias, location, region code, and whether the
// TLS-certificate channel alone would have found the address. One map
// keyed by address holds all of it, so classifying a flow record costs a
// single hash lookup per direction — and Build() additionally assigns
// every address a dense uint32 ID (addresses in sorted order, so the
// assignment is deterministic) plus a dense alias ID, which the
// aggregation layer uses for its bitsets and flat arrays.
type BackendIndex struct {
	info map[netip.Addr]backendInfo

	// Dense view, built lazily by ensureBuilt and invalidated by Add.
	// built is atomic so concurrent aggregate constructors (one per wire
	// stream) can share a freshly added-to index safely; Add itself must
	// not race with readers.
	built   atomic.Bool
	buildMu sync.Mutex
	// gen counts rebuilds. Aggregates stamp the generation they were
	// built against and refuse (loudly) to produce results or merge
	// after a rebuild reassigned the ID space underneath them.
	gen int
	// addrs and infos are the ID→address and ID→info reverse tables.
	addrs []netip.Addr
	infos []backendInfo
	// identity[i] == i: the backend dictionary of tables whose rows
	// already carry dense IDs (WireTables.AppendRecord).
	identity []int32
	// words is the backend-bitset width in uint64 words.
	words int
	// v4Mask marks the IDs of IPv4 (and 4-in-6) addresses; totalV4 is
	// its popcount (Figure 5's coverage denominator).
	v4Mask  []uint64
	totalV4 int
	// aliasNames is the sorted alias list (aliasID → name) and
	// aliasTotals the per-alias [v4, v6] address counts — the caches
	// behind Aliases() and Study.Visibility.
	aliasNames  []string
	aliasTotals [][2]int
	// aliasWords is the alias-bitset width in uint64 words.
	aliasWords int
}

// NewBackendIndex returns an empty index.
func NewBackendIndex() *BackendIndex {
	return &BackendIndex{info: map[netip.Addr]backendInfo{}}
}

// Add registers one backend address under its anonymized alias. Adding
// invalidates the dense ID view: IDs are reassigned on the next Build,
// so no ContactCounter/Collector may be built before the final Add.
func (b *BackendIndex) Add(addr netip.Addr, alias string, cont geo.Continent, region string, certFound bool) {
	b.info[addr] = backendInfo{alias: alias, cont: cont, region: region, certFound: certFound}
	b.built.Store(false)
}

// Build finalizes the dense ID view: every address gets a stable dense
// ID (sorted address order) and every alias a dense alias ID (sorted
// alias order), with the per-alias totals and the v4 mask cached
// alongside. Idempotent and safe to call concurrently; the aggregation
// constructors imply it, so explicit calls are only a warm-up.
func (b *BackendIndex) Build() { b.ensureBuilt() }

func (b *BackendIndex) ensureBuilt() {
	if b.built.Load() {
		return
	}
	b.buildMu.Lock()
	defer b.buildMu.Unlock()
	if b.built.Load() {
		return
	}
	b.build()
	b.built.Store(true)
}

// checkGen panics when an aggregate built against an older ID
// assignment touches a rebuilt index: after an Add-triggered rebuild
// the aggregate's bitsets encode stale IDs, and producing results from
// them would be silent corruption.
func (b *BackendIndex) checkGen(gen int) {
	if gen != b.gen {
		panic("flows: BackendIndex was rebuilt (Add after aggregation started) — dense IDs no longer match this aggregate")
	}
}

func (b *BackendIndex) build() {
	b.gen++
	addrs := make([]netip.Addr, 0, len(b.info))
	aliasSeen := map[string]struct{}{}
	for a, bi := range b.info {
		addrs = append(addrs, a)
		aliasSeen[bi.alias] = struct{}{}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	names := make([]string, 0, len(aliasSeen))
	for a := range aliasSeen {
		names = append(names, a)
	}
	sort.Strings(names)
	aliasID := make(map[string]int32, len(names))
	for i, n := range names {
		aliasID[n] = int32(i)
	}

	b.addrs = addrs
	b.infos = make([]backendInfo, len(addrs))
	b.identity = make([]int32, len(addrs))
	b.words = (len(addrs) + 63) / 64
	b.v4Mask = make([]uint64, b.words)
	b.aliasNames = names
	b.aliasTotals = make([][2]int, len(names))
	b.aliasWords = (len(names) + 63) / 64
	for i, a := range addrs {
		bi := b.info[a]
		bi.id = int32(i)
		bi.aliasID = aliasID[bi.alias]
		b.info[a] = bi
		b.infos[i] = bi
		b.identity[i] = int32(i)
		if a.Is4() || a.Is4In6() {
			setBit(b.v4Mask, i)
			b.aliasTotals[bi.aliasID][0]++
		} else {
			b.aliasTotals[bi.aliasID][1]++
		}
	}
	b.totalV4 = popcount(b.v4Mask)
}

// Size returns the number of indexed addresses.
func (b *BackendIndex) Size() int { return len(b.info) }

// --- Scanner identification --------------------------------------------

// ContactCounter tallies how many distinct backend IPs each subscriber
// line contacts (the Richter et al. scanner heuristic of Section 5.2):
// one backend bitset per interned line address.
type ContactCounter struct {
	idx   *BackendIndex
	gen   int
	words int
	lines lineTab
	// bits holds one idx.words-stride backend bitset per line ID, and
	// n each line's distinct-backend count (its bitset's popcount), which
	// setContact, orContacts and clearContact keep current.
	bits []uint64
	n    []int32
}

// NewContactCounter returns a counter over idx (building idx's dense ID
// view if needed — Adding to idx afterwards invalidates the counter,
// which its result methods turn into a panic rather than silent
// corruption).
func NewContactCounter(idx *BackendIndex) *ContactCounter {
	idx.ensureBuilt()
	return &ContactCounter{idx: idx, gen: idx.gen, words: idx.words}
}

// lineID interns a line address, growing the bitset arena and the
// counts for new lines.
func (c *ContactCounter) lineID(a netip.Addr) int32 {
	id := c.lines.id(a)
	c.bits = grown(c.bits, (int(id)+1)*c.words)
	c.n = grown(c.n, int(id)+1)
	return id
}

// reserveLines makes room for n lines, interned from likes' addresses.
func (c *ContactCounter) reserveLines(n int, likes ...*lineTab) {
	c.lines.reserve(n, likes...)
	c.bits = reserve(c.bits, n*c.words)
	c.n = reserve(c.n, n)
}

// lineBits returns line ID i's backend bitset.
func (c *ContactCounter) lineBits(i int) []uint64 {
	return c.bits[i*c.words : (i+1)*c.words]
}

// setContact marks line's contact with backend, counting it when it is
// new.
func (c *ContactCounter) setContact(line int, backend int32) {
	w := &c.bits[line*c.words+int(backend>>6)]
	sh := uint(backend) & 63
	c.n[line] += int32(^*w >> sh & 1)
	*w |= 1 << sh
}

// orContacts adds the contacts of src, a backend bitset, to line's,
// counting the new ones.
func (c *ContactCounter) orContacts(line int, src []uint64) {
	dst := c.lineBits(line)
	added := 0
	for k, w := range src {
		added += bits.OnesCount64(w &^ dst[k])
		dst[k] |= w
	}
	c.n[line] += int32(added)
}

// clearContact removes line's contact with backend, which must be set,
// and reports whether the line has no contact left.
func (c *ContactCounter) clearContact(line int, backend int32) bool {
	clearBit(c.bits[line*c.words:], int(backend))
	c.n[line]--
	return c.n[line] == 0
}

// Scanners returns the lines contacting more than threshold backend IPs.
func (c *ContactCounter) Scanners(threshold int) map[netip.Addr]struct{} {
	c.idx.checkGen(c.gen)
	out := map[netip.Addr]struct{}{}
	for i, a := range c.lines.addrs {
		if int(c.n[i]) > threshold {
			out[a] = struct{}{}
		}
	}
	return out
}

// CurvePoint is one x-position of Figure 5.
type CurvePoint struct {
	Threshold int
	// Scanners is the number of excluded subscriber lines.
	Scanners int
	// CoveragePct is the share of identified IPv4 backends contacted by
	// the remaining lines.
	CoveragePct float64
}

// Curve sweeps scanner thresholds (Figure 5's two axes). The lines a
// threshold can keep are counting-sorted by their distinct-backend
// counts once and the thresholds sweep incrementally over that order —
// each kept line's bitset is folded into the visible set exactly once,
// instead of the historical O(thresholds × lines × set-size) rescan.
func (c *ContactCounter) Curve(thresholds []int) []CurvePoint {
	c.idx.checkGen(c.gen)
	n := len(c.lines.addrs)
	ts := append([]int(nil), thresholds...)
	sort.Ints(ts)
	// A line above the largest threshold is never kept, so only the
	// counts up to it (and up to the most a line can reach) sort.
	top := -1
	if len(ts) > 0 {
		top = min(ts[len(ts)-1], c.words*64)
	}
	var order []int32
	if top >= 0 {
		start := make([]int32, top+2)
		for _, v := range c.n {
			if int(v) <= top {
				start[v+1]++
			}
		}
		for i := 1; i < len(start); i++ {
			start[i] += start[i-1]
		}
		order = make([]int32, start[top+1])
		for l, v := range c.n {
			if int(v) <= top {
				order[start[v]] = int32(l)
				start[v]++
			}
		}
	}

	visible := make([]uint64, c.words)
	byThreshold := make(map[int]CurvePoint, len(ts))
	p := 0
	for _, t := range ts {
		if _, done := byThreshold[t]; done {
			continue
		}
		// Lines at or below the threshold are kept; their IPv4 contacts
		// join the visible set (the union is order-independent).
		for p < len(order) && int(c.n[order[p]]) <= t {
			row := c.lineBits(int(order[p]))
			for k, w := range row {
				visible[k] |= w & c.idx.v4Mask[k]
			}
			p++
		}
		pct := 0.0
		if c.idx.totalV4 > 0 {
			pct = 100 * float64(popcount(visible)) / float64(c.idx.totalV4)
		}
		byThreshold[t] = CurvePoint{Threshold: t, Scanners: n - p, CoveragePct: pct}
	}
	out := make([]CurvePoint, len(thresholds))
	for i, t := range thresholds {
		out[i] = byThreshold[t]
	}
	return out
}

// --- Full aggregation ----------------------------------------------------

// Collector aggregates everything the figures need over the rows of
// kept (non-scanner) lines. Every aggregate is a slice or bitset
// indexed by line/backend/alias/port ID (see dense.go); Study()
// finalizes the collector into a read-only view over them.
type Collector struct {
	idx   *BackendIndex
	gen   int
	days  []time.Time
	hours int
	rate  float64
	// focusAlias drives the regional outage series (Figures 15/16).
	focusAlias   string
	focusRegion  string
	focusAliasID int32

	// Stride bookkeeping: ds = len(days), hw/aw = hour/alias bitset words.
	ds, hw, aw, nAliases int

	// coverBits (stride hw) marks study hours with at least one analyzed
	// record — the feed-liveness signal behind degraded-vantage
	// detection. A healthy week-long feed covers every hour; a feed that
	// died Wednesday leaves the back half zero.
	coverBits []uint64

	lines lineTab
	ports portTab

	// Per-line aggregates, stride-packed by line ID (grown on intern):
	// daily [down, up] volumes, contacted-continent masks, alias-seen and
	// cert-seen alias bitsets, and the (line, alias) slot table.
	lineDaily     []uint64 // stride 2*ds: [day][down,up]
	lineConts     []uint8
	lineAliasBits []uint64 // stride aw
	lineCertBits  []uint64 // stride aw
	laIdx         []int32  // stride nAliases: slot+1 into the la arenas

	// Per-alias aggregates, indexed by alias ID. The hour columns
	// (activeLines, downHour, upHour) are nil for an alias without rows
	// (of that direction). activeLines counts, per hour, the alias's
	// slots whose laHours bit is set: every write that sets or drops a
	// bit keeps it current, so Study() derives nothing.
	visible     [][]uint64 // backend bitset
	activeLines [][]uint64
	downHour    [][]uint64
	upHour      [][]uint64
	portVol     [][]uint64 // per port ID
	portSeen    [][]uint64 // port-ID presence bitset

	// (line, alias) and (line, port) slot arenas. Every (line, alias)
	// pair with a kept row has a slot s, keyed laKeys[s], which owns the
	// pair's downstream volume per day, laDaily[s*ds:(s+1)*ds] (zero for
	// a pair of upstream rows only), and its active-hour bitset,
	// laHours[s*hw:(s+1)*hw]. A (line, port) slot exists per downstream
	// pair.
	laDaily []uint64
	laHours []uint64
	laKeys  []laKey
	lpIdx   [][]int32 // per port ID: per line slot+1
	lpDaily []uint64
	lpKeys  []lpKey

	// Per-backend traffic (the §3.4 traffic cross-check) with presence
	// bits (a touched backend with zero bytes is still "active"). The
	// per-continent volumes (Figure 14) are derived from these on demand.
	backendVol  []uint64
	backendSeen []uint64

	// Focus hour columns (Figures 15/16) of the focus alias's rows with
	// a backend in the focus region or in Europe; its columns over all
	// its backends are the alias's own downHour and activeLines. The
	// focusLines columns count the set bits of the per-line focusHours
	// columns per hour, as activeLines does for the slots.
	focusDownRegion, focusDownEU   []uint64 // hourly volumes
	focusHoursRegion, focusHoursEU []uint64 // per line, stride hw
	focusLinesRegion, focusLinesEU []uint64

	// backends is what a row's fold reads per backend ID (clones share
	// it); runBits holds a run's alias and cert bits, zero between runs.
	backends []backendRun
	runBits  []uint64

	finalized bool // by Study(), whose view shares the columns above
}

// checkWritable panics on a write that would change a handed-out Study.
func (c *Collector) checkWritable() {
	if c.finalized {
		panic("flows: write to a Collector after Study() finalized it")
	}
}

type laKey struct{ line, alias int32 }

type lpKey struct{ line, port int32 }

// Options tune a Collector (and the ShardedAggregator wrapping one).
type Options struct {
	// ScannerThreshold is the distinct-backend count above which a
	// sink (ShardPartial, Window) excludes a line address from a flush
	// interval (Figure 5's x-axis). Zero or negative disables the
	// classification: no line is excluded.
	ScannerThreshold int
	// SamplingRate scales sampled bytes back to estimates.
	SamplingRate uint32
	// FocusAlias/FocusRegion select the outage deep-dive provider and
	// region (Figures 15/16: T1, us-east-1).
	FocusAlias  string
	FocusRegion string
	// Vantage labels the vantage-point world this aggregation observes.
	// NewShardPartial stamps it onto every partial so FederatedMerge can
	// group shards by origin; "" is the single-vantage default.
	Vantage string
}

// NewCollector builds a collector for a study period (building idx's
// dense ID view if needed — Adding to idx afterwards invalidates the
// collector, which Study/Merge turn into a panic rather than silent
// corruption).
func NewCollector(idx *BackendIndex, days []time.Time, opts Options) *Collector {
	idx.ensureBuilt()
	hours := len(days) * 24
	nAliases := len(idx.aliasNames)
	c := &Collector{
		idx:          idx,
		gen:          idx.gen,
		days:         days,
		hours:        hours,
		rate:         float64(opts.SamplingRate),
		focusAlias:   opts.FocusAlias,
		focusRegion:  opts.FocusRegion,
		focusAliasID: -1,
		ds:           len(days),
		hw:           (hours + 63) / 64,
		aw:           idx.aliasWords,
		nAliases:     nAliases,
		coverBits:    make([]uint64, (hours+63)/64),
		visible:      make([][]uint64, nAliases),
		activeLines:  make([][]uint64, nAliases),
		downHour:     make([][]uint64, nAliases),
		upHour:       make([][]uint64, nAliases),
		portVol:      make([][]uint64, nAliases),
		portSeen:     make([][]uint64, nAliases),
		backendVol:   make([]uint64, len(idx.addrs)),
		backendSeen:  make([]uint64, idx.words),
	}
	if c.rate <= 0 {
		c.rate = 1
	}
	if c.focusAlias != "" {
		for i, name := range idx.aliasNames {
			if name == c.focusAlias {
				c.focusAliasID = int32(i)
			}
		}
		c.focusDownRegion = make([]uint64, hours)
		c.focusDownEU = make([]uint64, hours)
		c.focusLinesRegion = make([]uint64, hours)
		c.focusLinesEU = make([]uint64, hours)
	}
	c.backends = make([]backendRun, len(idx.infos))
	c.runBits = make([]uint64, 2*c.aw)
	for i, bi := range idx.infos {
		be := backendRun{alias: bi.aliasID, cont: contBit(bi.cont), cert: bi.certFound}
		switch {
		case bi.aliasID != c.focusAliasID:
		case bi.region == c.focusRegion:
			be.focus = focusRegion
		case bi.cont == geo.Europe:
			be.focus = focusEU
		}
		c.backends[i] = be
	}
	return c
}

// lineID interns a line address, growing every per-line aggregate for
// new lines (the lazily-grown per-alias/per-port tables grow at touch).
func (c *Collector) lineID(a netip.Addr) int32 {
	n := len(c.lines.addrs)
	id := c.lines.id(a)
	if int(id) < n {
		return id
	}
	ln := n + 1
	c.lineDaily = grown(c.lineDaily, ln*2*c.ds)
	c.lineConts = grown(c.lineConts, ln)
	c.lineAliasBits = grown(c.lineAliasBits, ln*c.aw)
	c.lineCertBits = grown(c.lineCertBits, ln*c.aw)
	c.laIdx = grown(c.laIdx, ln*c.nAliases)
	return id
}

// reserveLines makes room for n lines, interned from likes' addresses,
// in every column lineID grows.
func (c *Collector) reserveLines(n int, likes ...*lineTab) {
	c.lines.reserve(n, likes...)
	c.lineDaily = reserve(c.lineDaily, n*2*c.ds)
	c.lineConts = reserve(c.lineConts, n)
	c.lineAliasBits = reserve(c.lineAliasBits, n*c.aw)
	c.lineCertBits = reserve(c.lineCertBits, n*c.aw)
	c.laIdx = reserve(c.laIdx, n*c.nAliases)
}

func contBit(c geo.Continent) uint8 {
	switch c {
	case geo.Europe:
		return 1
	case geo.NorthAmerica:
		return 2
	case geo.Asia:
		return 4
	default:
		return 8
	}
}

// laSlot finds or creates the (line, alias) slot and returns it.
func (c *Collector) laSlot(line, alias int) int {
	si := line*c.nAliases + alias
	slot := c.laIdx[si]
	if slot == 0 {
		slot = int32(len(c.laKeys)) + 1
		c.laKeys = append(c.laKeys, laKey{line: int32(line), alias: int32(alias)})
		c.laDaily = grown(c.laDaily, int(slot)*c.ds)
		c.laHours = grown(c.laHours, int(slot)*c.hw)
		c.laIdx[si] = slot
	}
	return int(slot) - 1
}

// lpSlotBase finds or creates the linePortDaily slot for (line, port)
// and returns its base offset into lpDaily.
func (c *Collector) lpSlotBase(line, port int) int {
	for len(c.lpIdx) <= port {
		c.lpIdx = append(c.lpIdx, nil)
	}
	arr := extend(&c.lpIdx[port], line+1)
	slot := arr[line]
	if slot == 0 {
		slot = int32(len(c.lpKeys)) + 1
		c.lpKeys = append(c.lpKeys, lpKey{line: int32(line), port: int32(port)})
		c.lpDaily = grown(c.lpDaily, int(slot)*c.ds)
		arr[line] = slot
	}
	return (int(slot) - 1) * c.ds
}

// Focus classes of a backend: none (another alias, or the focus alias
// elsewhere), or the focus alias in the focus region or in Europe.
const (
	focusNone uint8 = iota
	focusRegion
	focusEU
)

// backendRun is what a row's fold reads of its backend: alias ID,
// continent bit, cert flag and focus class.
type backendRun struct {
	alias int32
	cont  uint8
	cert  bool
	focus uint8
}

// maxVol is the largest float64 below 2^64, where rowVol saturates.
const maxVol = 1<<64 - 1<<11

// rowVol is a row's volume, the one definition every engine folds: its
// raw byte counter scaled by the sampling rate, float64(raw)·rate taken
// as an integer, saturating at maxVol. Below 2^53 the product is exact;
// above it only this per-row rounding remains, and the result is still a
// float64 (which is what a checkpoint row stores). Every aggregate sums
// rowVols as uint64, so adds, merges and subtractions are exact and
// order-independent for every counter; a cell past 2^64 bytes wraps, the
// same way in any order.
func rowVol(raw uint64, rate float64) uint64 {
	return uint64(min(float64(raw)*rate, maxVol))
}

// lineRun is the ingest core: it folds one line's consecutive rows
// (line interned, hours in-window, volumes scaled by rowVol) into a
// Collector. beginRun resolves the line once, add stores a column header
// back only when the column grew, and end ORs the run's alias, cert and
// continent bits into the line. ShardPartial.FoldKept and the window's
// folds all fold through it, so they produce byte-identical aggregates.
type lineRun struct {
	c           *Collector
	line, daily int   // daily: the line's lineDaily base, [day][down,up]
	prev        int32 // the previous row's backend ID
	// slot is the (line, alias) slot of prev's alias.
	slot           int
	aliases, certs []uint64 // c.runBits
	conts          uint8
}

func (c *Collector) beginRun(line int) lineRun {
	c.checkWritable()
	return lineRun{c: c, line: line, daily: line * 2 * c.ds, prev: -1, aliases: c.runBits[:c.aw], certs: c.runBits[c.aw:]}
}

func (r *lineRun) add(backendID int32, down bool, hour int, port proto.PortKey, bytes uint64) {
	c := r.c
	setBit(c.coverBits, hour)
	day := hour / 24
	be := c.backends[backendID]
	a := int(be.alias)
	if backendID != r.prev {
		// Visibility and the line's sets: idempotent per backend.
		r.prev = backendID
		vs := c.visible[a]
		if vs == nil {
			// An alias's visible set and active-line counts appear, and
			// leave in compact, together.
			vs = make([]uint64, c.idx.words)
			c.visible[a] = vs
			c.activeLines[a] = make([]uint64, c.hours)
		}
		setBit(vs, int(backendID))
		setBit(c.backendSeen, int(backendID))
		setBit(r.aliases, a)
		if be.cert {
			setBit(r.certs, a)
		}
		r.conts |= be.cont
		r.slot = c.laSlot(r.line, a)
	}
	setHour(c.laHours[r.slot*c.hw:], c.activeLines[a], hour)

	// Hourly volumes.
	col := c.upHour
	if down {
		col = c.downHour
	}
	if col[a] == nil {
		col[a] = make([]uint64, c.hours)
	}
	col[a][hour] += bytes

	pid := int(c.ports.id(port))
	extend(&c.portVol[a], pid+1)[pid] += bytes
	setBit(extend(&c.portSeen[a], pid>>6+1), pid)

	// Per-line dailies.
	if down {
		c.lineDaily[r.daily+2*day] += bytes
		c.laDaily[r.slot*c.ds+day] += bytes
		c.lpDaily[c.lpSlotBase(r.line, pid)+day] += bytes
	} else {
		c.lineDaily[r.daily+2*day+1] += bytes
	}

	c.backendVol[backendID] += bytes

	// Outage focus.
	switch be.focus {
	case focusRegion:
		r.focus(c.focusDownRegion, c.focusLinesRegion, &c.focusHoursRegion, down, hour, bytes)
	case focusEU:
		r.focus(c.focusDownEU, c.focusLinesEU, &c.focusHoursEU, down, hour, bytes)
	}
}

// setHour marks hour in one hour bitset and, when the bit was clear,
// counts it into the bitset's active-line counts.
func setHour(bits, active []uint64, hour int) {
	w := &bits[hour>>6]
	sh := uint(hour) & 63
	active[hour] += ^*w >> sh & 1
	*w |= 1 << sh
}

// focus folds a focus-alias row into one focus volume column, its
// active-line counts and the run line's hour bitset of a per-line focus
// column, which it grows (and stores back) only when it is too short.
func (r *lineRun) focus(down, active []uint64, col *[]uint64, isDown bool, hour int, bytes uint64) {
	if isDown {
		down[hour] += bytes
	}
	hw := r.c.hw
	setHour(extend(col, (r.line+1)*hw)[r.line*hw:], active, hour)
}

func (r *lineRun) end() {
	c := r.c
	if c == nil {
		return // no row began the run
	}
	aliases := c.lineAliasBits[r.line*c.aw : (r.line+1)*c.aw]
	certs := c.lineCertBits[r.line*c.aw : (r.line+1)*c.aw]
	for i := range aliases {
		aliases[i] |= r.aliases[i]
		certs[i] |= r.certs[i]
	}
	clearBits(c.runBits)
	c.lineConts[r.line] |= r.conts
}
