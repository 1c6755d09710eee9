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
// (volumes are integer-valued float64s well under 2^53, so addition is
// exact), and finalization sorts wherever order could leak — a merged
// N-shard run is byte-identical to a sequential one.
//
// Provider identities are anonymized to their aliases (T1..T4, D1..D6,
// O1..O6) before anything enters the collector, mirroring the paper's
// agreement with the ISP (Section 3.7).
package flows

import (
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iotmap/internal/analysis"
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

// Aliases returns the sorted alias list (cached at Build, not rescanned
// per call).
func (b *BackendIndex) Aliases() []string {
	b.ensureBuilt()
	return append([]string(nil), b.aliasNames...)
}

// --- Scanner identification --------------------------------------------

// ContactCounter tallies how many distinct backend IPs each subscriber
// line contacts (the Richter et al. scanner heuristic of Section 5.2):
// one backend bitset per interned line address.
type ContactCounter struct {
	idx   *BackendIndex
	gen   int
	words int
	lines lineTab
	// bits holds one idx.words-stride backend bitset per line ID.
	bits []uint64
}

// NewContactCounter returns a counter over idx (building idx's dense ID
// view if needed — Adding to idx afterwards invalidates the counter,
// which its result methods turn into a panic rather than silent
// corruption).
func NewContactCounter(idx *BackendIndex) *ContactCounter {
	idx.ensureBuilt()
	return &ContactCounter{idx: idx, gen: idx.gen, words: idx.words}
}

// lineID interns a line address, growing the bitset arena for new lines.
func (c *ContactCounter) lineID(a netip.Addr) int32 {
	id := c.lines.id(a)
	c.bits = grown(c.bits, (int(id)+1)*c.words)
	return id
}

// lineBits returns line ID i's backend bitset.
func (c *ContactCounter) lineBits(i int) []uint64 {
	return c.bits[i*c.words : (i+1)*c.words]
}

// Scanners returns the lines contacting more than threshold backend IPs.
func (c *ContactCounter) Scanners(threshold int) map[netip.Addr]struct{} {
	c.idx.checkGen(c.gen)
	out := map[netip.Addr]struct{}{}
	for i, a := range c.lines.addrs {
		if popcount(c.lineBits(i)) > threshold {
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

// Curve sweeps scanner thresholds (Figure 5's two axes). Lines are
// sorted by distinct-backend count once and the thresholds sweep
// incrementally over that order — each line's bitset is folded into the
// visible set exactly once, instead of the historical
// O(thresholds × lines × set-size) rescan.
func (c *ContactCounter) Curve(thresholds []int) []CurvePoint {
	c.idx.checkGen(c.gen)
	n := len(c.lines.addrs)
	counts := make([]int, n)
	order := make([]int32, n)
	for i := range counts {
		counts[i] = popcount(c.lineBits(i))
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return counts[order[i]] < counts[order[j]] })

	ts := append([]int(nil), thresholds...)
	sort.Ints(ts)
	visible := make([]uint64, c.words)
	byThreshold := make(map[int]CurvePoint, len(ts))
	p := 0
	for _, t := range ts {
		if _, done := byThreshold[t]; done {
			continue
		}
		// Lines at or below the threshold are kept; their IPv4 contacts
		// join the visible set (the union is order-independent).
		for p < n && counts[order[p]] <= t {
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
	// cert-seen alias bitsets, and the lineAliasDaily slot table.
	lineDaily     []float64 // stride 2*ds: [day][down,up]
	lineConts     []uint8
	lineAliasBits []uint64 // stride aw
	lineCertBits  []uint64 // stride aw
	laIdx         []int32  // stride nAliases: slot+1 into laDaily

	// Per-alias aggregates, indexed by alias ID.
	visible   [][]uint64 // backend bitset
	lineHours [][]uint64 // per line: stride-hw active-hour bitset
	downHour  []*analysis.Series
	upHour    []*analysis.Series
	portVol   [][]float64 // per port ID
	portSeen  [][]uint64  // port-ID presence bitset

	// lineAliasDaily/linePortDaily slot arenas: slot s owns
	// laDaily[s*ds:(s+1)*ds] with its (line, alias) key in laKeys[s].
	laDaily []float64
	laKeys  []laKey
	lpIdx   [][]int32 // per port ID: per line slot+1
	lpDaily []float64
	lpKeys  []lpKey

	// Per-backend traffic (the §3.4 traffic cross-check) with presence
	// bits (a touched backend with zero bytes is still "active"). The
	// per-continent volumes (Figure 14) are derived from these on demand.
	backendVol  []float64
	backendSeen []uint64

	// Focus series (Figures 15/16).
	focusDownAll, focusDownRegion, focusDownEU    *analysis.Series
	focusHoursAll, focusHoursRegion, focusHoursEU []uint64 // per line, stride hw

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
		lineHours:    make([][]uint64, nAliases),
		downHour:     make([]*analysis.Series, nAliases),
		upHour:       make([]*analysis.Series, nAliases),
		portVol:      make([][]float64, nAliases),
		portSeen:     make([][]uint64, nAliases),
		backendVol:   make([]float64, len(idx.addrs)),
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
		c.focusDownAll = analysis.NewSeries(c.focusAlias+": All", hours)
		c.focusDownRegion = analysis.NewSeries(c.focusAlias+": "+c.focusRegion, hours)
		c.focusDownEU = analysis.NewSeries(c.focusAlias+": EU", hours)
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

// laSlotBase finds or creates the lineAliasDaily slot for (line, alias)
// and returns its base offset into laDaily.
func (c *Collector) laSlotBase(line, alias int) int {
	si := line*c.nAliases + alias
	slot := c.laIdx[si]
	if slot == 0 {
		slot = int32(len(c.laKeys)) + 1
		c.laKeys = append(c.laKeys, laKey{line: int32(line), alias: int32(alias)})
		c.laDaily = grown(c.laDaily, int(slot)*c.ds)
		c.laIdx[si] = slot
	}
	return (int(slot) - 1) * c.ds
}

// lpSlotBase finds or creates the linePortDaily slot for (line, port)
// and returns its base offset into lpDaily.
func (c *Collector) lpSlotBase(line, port int) int {
	for len(c.lpIdx) <= port {
		c.lpIdx = append(c.lpIdx, nil)
	}
	arr := grown(c.lpIdx[port], line+1)
	c.lpIdx[port] = arr
	slot := arr[line]
	if slot == 0 {
		slot = int32(len(c.lpKeys)) + 1
		c.lpKeys = append(c.lpKeys, lpKey{line: int32(line), port: int32(port)})
		c.lpDaily = grown(c.lpDaily, int(slot)*c.ds)
		arr[line] = slot
	}
	return (int(slot) - 1) * c.ds
}

// ingestDense is the fully resolved ingest core: line already interned,
// hour already in-window, bytes already scaled. ShardPartial.FoldKept
// and the window's fold both land here, so they produce byte-identical
// aggregates.
func (c *Collector) ingestDense(line int, backendID int32, down bool, hour int, port proto.PortKey, bytes float64) {
	c.checkWritable()
	setBit(c.coverBits, hour)
	day := hour / 24
	bi := &c.idx.infos[backendID]
	a := int(bi.aliasID)

	// Visibility.
	vs := c.visible[a]
	if vs == nil {
		vs = make([]uint64, c.idx.words)
		c.visible[a] = vs
	}
	setBit(vs, int(backendID))

	// Hourly activity.
	lh := grown(c.lineHours[a], (line+1)*c.hw)
	c.lineHours[a] = lh
	setBit(lh[line*c.hw:], hour)

	// Hourly volumes.
	if down {
		s := c.downHour[a]
		if s == nil {
			s = analysis.NewSeries(bi.alias, c.hours)
			c.downHour[a] = s
		}
		s.Add(hour, bytes)
	} else {
		s := c.upHour[a]
		if s == nil {
			s = analysis.NewSeries(bi.alias, c.hours)
			c.upHour[a] = s
		}
		s.Add(hour, bytes)
	}

	pid := int(c.ports.id(port))
	pv := grown(c.portVol[a], pid+1)
	c.portVol[a] = pv
	pv[pid] += bytes
	ps := grown(c.portSeen[a], pid>>6+1)
	c.portSeen[a] = ps
	setBit(ps, pid)

	// Per-line dailies.
	base := line*2*c.ds + 2*day
	if down {
		c.lineDaily[base] += bytes
	} else {
		c.lineDaily[base+1] += bytes
	}
	setBit(c.lineAliasBits[line*c.aw:], a)
	if bi.certFound {
		setBit(c.lineCertBits[line*c.aw:], a)
	}
	if down {
		c.laDaily[c.laSlotBase(line, a)+day] += bytes
		c.lpDaily[c.lpSlotBase(line, pid)+day] += bytes
	}

	c.backendVol[backendID] += bytes
	setBit(c.backendSeen, int(backendID))

	// Continent bookkeeping.
	cont := bi.cont
	c.lineConts[line] |= contBit(cont)

	// Outage focus.
	if int32(a) == c.focusAliasID {
		if down {
			c.focusDownAll.Add(hour, bytes)
		}
		c.focusHoursAll = grown(c.focusHoursAll, (line+1)*c.hw)
		setBit(c.focusHoursAll[line*c.hw:], hour)
		switch {
		case bi.region == c.focusRegion:
			if down {
				c.focusDownRegion.Add(hour, bytes)
			}
			c.focusHoursRegion = grown(c.focusHoursRegion, (line+1)*c.hw)
			setBit(c.focusHoursRegion[line*c.hw:], hour)
		case cont == geo.Europe:
			if down {
				c.focusDownEU.Add(hour, bytes)
			}
			c.focusHoursEU = grown(c.focusHoursEU, (line+1)*c.hw)
			setBit(c.focusHoursEU[line*c.hw:], hour)
		}
	}
}
