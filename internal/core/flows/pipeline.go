package flows

import (
	"math"
	"net/netip"
	"time"

	"iotmap/internal/analysis"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
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

// Merge folds another counter's contact sets into c, remapping the
// donor's line IDs through its reverse table. Merging shard partials in
// any order yields the same counter as a sequential pass over the
// concatenated streams.
func (c *ContactCounter) Merge(o *ContactCounter) {
	c.idx.checkGen(c.gen)
	c.idx.checkGen(o.gen)
	for i, a := range o.lines.addrs {
		orBits(c.lineBits(int(c.lineID(a))), o.lineBits(i))
	}
}

// Merge folds another collector's aggregates into c. Both collectors
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
// index), so bitsets OR directly; the donor's line and port IDs are
// local and remap through its reverse tables.
//
// Merge consumes o: missing aggregates are adopted by reference, not
// copied, so the donor must not be ingested into or merged again.
func (c *Collector) Merge(o *Collector) {
	c.idx.checkGen(c.gen)
	c.idx.checkGen(o.gen)
	c.checkWritable()
	o.checkWritable()
	// Remap donor line/port IDs into c's spaces (interning as needed).
	remap := make([]int32, len(o.lines.addrs))
	for i, a := range o.lines.addrs {
		remap[i] = c.lineID(a)
	}
	portRemap := make([]int32, len(o.ports.keys))
	for i, k := range o.ports.keys {
		portRemap[i] = c.ports.id(k)
	}

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
		c.lineHours[a] = mergeLineHours(c.lineHours[a], o.lineHours[a], remap, c.hw, len(c.lines.addrs))
		mergeSeriesAt(c.downHour, o.downHour, a)
		mergeSeriesAt(c.upHour, o.upHour, a)
		if src := o.portVol[a]; len(src) > 0 {
			forEachBit(o.portSeen[a], func(pid int) {
				t := int(portRemap[pid])
				pv := grown(c.portVol[a], t+1)
				c.portVol[a] = pv
				pv[t] += src[pid]
				ps := grown(c.portSeen[a], t>>6+1)
				c.portSeen[a] = ps
				setBit(ps, t)
			})
		}
	}

	for s, k := range o.laKeys {
		base := c.laSlotBase(int(remap[k.line]), int(k.alias))
		for d := 0; d < c.ds; d++ {
			c.laDaily[base+d] += o.laDaily[s*c.ds+d]
		}
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
		addValues(c.focusDownAll, o.focusDownAll)
		addValues(c.focusDownRegion, o.focusDownRegion)
		addValues(c.focusDownEU, o.focusDownEU)
		c.focusHoursAll = mergeLineHours(c.focusHoursAll, o.focusHoursAll, remap, c.hw, len(c.lines.addrs))
		c.focusHoursRegion = mergeLineHours(c.focusHoursRegion, o.focusHoursRegion, remap, c.hw, len(c.lines.addrs))
		c.focusHoursEU = mergeLineHours(c.focusHoursEU, o.focusHoursEU, remap, c.hw, len(c.lines.addrs))
	}
}

// mergeLineHours ORs a donor's per-line hour bitsets into dst at the
// remapped line IDs.
func mergeLineHours(dst, src []uint64, remap []int32, hw, nLines int) []uint64 {
	if len(src) == 0 {
		return dst
	}
	dst = grown(dst, nLines*hw)
	for i := 0; i < len(src)/hw; i++ {
		orBits(dst[int(remap[i])*hw:(int(remap[i])+1)*hw], src[i*hw:(i+1)*hw])
	}
	return dst
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
	}
}

// clone deep-copies every aggregate; the index, study days, and the
// excluded set are immutable after construction and stay shared.
func (c *Collector) clone() *Collector {
	out := &Collector{
		idx:          c.idx,
		gen:          c.gen,
		days:         c.days,
		hours:        c.hours,
		rate:         c.rate,
		excluded:     c.excluded,
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

		visible:   cloneNested(c.visible),
		lineHours: cloneNested(c.lineHours),
		downHour:  cloneSeriesSlice(c.downHour),
		upHour:    cloneSeriesSlice(c.upHour),
		portVol:   cloneNested(c.portVol),
		portSeen:  cloneNested(c.portSeen),

		laDaily: cloneSlice(c.laDaily),
		laKeys:  append([]laKey(nil), c.laKeys...),
		lpIdx:   cloneNested(c.lpIdx),
		lpDaily: cloneSlice(c.lpDaily),
		lpKeys:  append([]lpKey(nil), c.lpKeys...),

		backendVol:  cloneSlice(c.backendVol),
		backendSeen: cloneSlice(c.backendSeen),

		focusDownAll:     cloneSeries(c.focusDownAll),
		focusDownRegion:  cloneSeries(c.focusDownRegion),
		focusDownEU:      cloneSeries(c.focusDownEU),
		focusHoursAll:    cloneSlice(c.focusHoursAll),
		focusHoursRegion: cloneSlice(c.focusHoursRegion),
		focusHoursEU:     cloneSlice(c.focusHoursEU),
	}
	return out
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
	cc, col := parts[0].cc, parts[0].col
	for _, p := range parts[1:] {
		cc.Merge(p.cc)
		col.Merge(p.col)
	}
	return cc, col
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
// controls the per-line exclusion (opts.Excluded is additionally
// honoured, for callers pre-seeding known scanners).
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
		a.parts[shard].IngestLine(backends, line.Addrs(), rows)
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
