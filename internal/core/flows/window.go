package flows

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"iotmap/internal/netflow"
	"iotmap/internal/proto"
)

// Sliding-window aggregation: the long-lived collector service cannot
// afford the batch pipeline's "ingest a week, Study() once, exit"
// shape — it ingests endless feeds and must answer "figures for the
// trailing N hours" at any moment.
//
// The window keeps no aggregates of its own. It owns one line intern
// table and one ring of hour buckets, a day longer than the window
// (absolute hour mod window hours + slideReach), and a bucket is an
// append-only columnar row log: five parallel columns — window line ID,
// dense backend ID, backend-side port, row flags (kept, down, udp) and
// the raw byte counter, 15 bytes — one row per routed record. Every read
// scales the counter by the sampling rate through rowVol, the volume the
// batch engine folds; a row whose counter does not fit below 2^32-1 keeps
// its volume in a per-bucket side map. A stream classifies each flush
// interval's lines against the scanner threshold on its own WireTables,
// then routes and appends the rows under the window's ingest lock, so
// concurrent streams classify in parallel and queue only to append. A
// bucket keeps its rows until a read's frame passes its hour or a later
// hour claims its slot; then its columns are truncated and parked on the
// free list, so steady-state eviction allocates nothing.
//
// Study()/Merged()/View() fold the live buckets into a full-frame
// ContactCounter+Collector by replaying rows: every row sets its
// contact bit, and kept rows go through the Collector's line-run kernel
// (lineRun, the batch engine's own ingest core) at hour offset (bucket
// hour − frame start).
// A fold of the whole frame (a rebuild) replays line by line: it
// counting-sorts the frame's rows by line first, so a line's aggregates
// are loaded once for the frame instead of once per hour it appears in.
// The fold is incremental: the last fold of the frame is cached, and
// each bucket records how many of its rows the fold holds. Buckets are
// append-only until released, so a read folds only the rows that
// arrived since the last one (late rows below the newest hour
// included), bucket by bucket; a frame that moved less than a day
// slides the cached fold first, subtracting the rows of the hours it
// left (exact, as volumes are uint64 sums and set members are
// row-counted), so the figures do not depend on when reads ran. The
// cached fold is the window's only read cache, and every read lends it
// out without copying it: View to a callback, Merged and Study to
// callers who may keep it. A fold Merged or Study lent is finalized and
// never written again; the first read that would change it (the frame
// moved, or rows arrived since) folds into a copy that replaces it
// (copy-on-write), and a rebuild simply replaces it. Because the window
// and the batch pipeline share one aggregation core and every aggregate
// is order-independent and exact (uint64 volume sums, see rowVol), a
// window that never evicted is byte-identical to a batch run over the
// same feed, and an evicted window matches a batch run over only the
// surviving hours' flushes (TestWindowEvictionMatchesBatch).
//
// Eviction granularity caveat: scanner classification stays per-flush,
// exactly like the batch pipeline (ShardPartial.IngestBatch shares
// classifyFlush), but a bucket can only retire what landed in its hour.
// A flush whose records span multiple hours is split across buckets
// while its classification evidence was pooled, so eviction is exact
// for feeds whose flush intervals respect hour boundaries (the natural
// discipline of a live exporter flushing at least hourly) and
// approximate otherwise — the whole-window no-eviction identity holds
// for any flush pattern either way. Similarly, a flush that jumps the
// window forward past an hour it is itself still filling credits that
// hour's in-flight records to EvictedRecords without an EvictedHours
// increment unless an earlier flush already landed there; hour-pure
// feeds never hit the case.

// Sink is where a producer's flush intervals land: either its own
// ShardPartial (the batch pipeline) or a shared Window (the long-lived
// service). Both consume whole flush intervals, because scanner
// classification is a per-flush decision.
type Sink interface {
	// NewWireTables returns empty ID tables bound to this sink's index
	// and study start.
	NewWireTables() *WireTables
	// IngestBatch consumes one flush interval's rows, resolved through t
	// (which must come from this sink): classify each line address
	// against the scanner threshold using this flush's distinct-backend
	// evidence, count every row's contact, aggregate the kept ones. b is
	// left as it is; an empty batch is a no-op.
	IngestBatch(t *WireTables, b *netflow.RecordBatch)
}

var (
	_ Sink = (*ShardPartial)(nil)
	_ Sink = (*Window)(nil)
)

// Window is an hour-granular sliding study over the dense aggregation
// core. It is safe for concurrent use: many collector streams may
// flush into one Window while Study/Merged/View/Snapshot/Stats readers
// run. Each stream classifies its flushes on its own WireTables; one
// lock serializes what every stream shares, the routing and appending.
type Window struct {
	idx  *BackendIndex
	opts Options

	epoch     time.Time
	hours     int
	threshold int
	rate      float64

	// endA is the newest hour ever ingested (-1 before any record
	// arrived). It changes under mu; End and Span read it without a lock.
	endA atomic.Int64

	// mu guards the ingest state (the line table, the ring of hour
	// buckets, the free list, rowHint and the in-progress flush) and the
	// frame ledger (the per-hour liveness and record totals, and the
	// refusal and eviction counters).
	mu    sync.Mutex
	lines lineTab
	ring  []*winBucket
	free  []*winBucket
	// rowHint is the row high-water mark across the buckets; fresh
	// buckets presize their columns from it so a chronological feed's
	// row appends stay inside capacity.
	rowHint int
	// touched lists the buckets the in-progress flush wrote to.
	touched []*winBucket

	hourLive                                      []bool
	hourRecs                                      []uint64
	preWindow, late, evictedHours, evictedRecords uint64

	// foldMu serializes Merged/Study/View and guards the fold cache,
	// stable. The lock order is foldMu → mu.
	foldMu                                      sync.Mutex
	stable                                      *windowFold
	hits, slides, rebuilds, copies, compactions atomic.Uint64
}

// Row flag bits (winBucket.flags, and the IWIN row encoding).
const (
	rowKept     = 1 << iota // reaches the Collector; otherwise contact evidence only
	rowDown                 // the backend is the source
	rowUDP                  // transport of the backend-side port
	rowFlagMask = rowKept | rowDown | rowUDP
)

// winBucket is one live hour's row log: parallel columns, one row per
// routed record in arrival order.
type winBucket struct {
	ah int64
	// records counts the bucket's kept rows.
	records uint64
	// mark/inFlush track the in-progress flush for the frame ledger.
	mark    uint64
	inFlush bool
	// folded counts the leading rows the stable fold holds. Rows are
	// append-only until release, so a read folds only [folded, len), and
	// a slide subtracts [0, folded).
	folded int

	line    []int32 // window line ID
	backend []int32 // dense backend ID
	port    []uint16
	flags   []uint8
	// bytes is the raw byte counter, and the row's volume is
	// rowVol(bytes[i], rate), the volume the batch engine folds. A row
	// whose volume no counter below wideRow reproduces holds wideRow, and
	// its volume waits in wide, by row. A map read is no call, so vol,
	// which every fold path calls per row, inlines.
	bytes []uint32
	wide  map[int]uint64
}

// wideRow marks a row whose volume is kept in its bucket's wide map.
const wideRow = math.MaxUint32

// add appends one row whose volume is rowVol(q, rate), or vol when q is
// wideRow.
func (bk *winBucket) add(line, backend int32, port uint16, flags uint8, q uint32, vol uint64) {
	if q == wideRow {
		if bk.wide == nil {
			bk.wide = map[int]uint64{}
		}
		bk.wide[len(bk.line)] = vol
	}
	bk.line = append(bk.line, line)
	bk.backend = append(bk.backend, backend)
	bk.port = append(bk.port, port)
	bk.flags = append(bk.flags, flags)
	bk.bytes = append(bk.bytes, q)
}

// grow makes room for n more rows in the bucket's columns, at most
// doubling them and never past total rows.
func (bk *winBucket) grow(n, total int) {
	l := len(bk.line)
	if l+n <= cap(bk.line) {
		return
	}
	c := min(total, max(l+n, 2*l))
	bk.line, bk.backend = reserve(bk.line, c), reserve(bk.backend, c)
	bk.port, bk.flags, bk.bytes = reserve(bk.port, c), reserve(bk.flags, c), reserve(bk.bytes, c)
}

// vol returns row i's volume at the window's rate.
func (bk *winBucket) vol(i int, rate float64) uint64 {
	if q := bk.bytes[i]; q != wideRow {
		return rowVol(uint64(q), rate)
	}
	return bk.wide[i]
}

// WindowStats counts what the window refused or retired.
type WindowStats struct {
	// PreWindowRecords counts records timestamped before the window
	// epoch — there is no hour to attribute them to.
	PreWindowRecords uint64
	// LateRecords counts the kept records (rows of lines under the
	// scanner threshold) older than the trailing window at arrival time:
	// their hour was already evicted (or never lived). Like
	// EvictedRecords, it leaves scanner rows out.
	LateRecords uint64
	// EvictedHours counts hour buckets retired as the window advanced.
	EvictedHours uint64
	// EvictedRecords counts the aggregated records those buckets held.
	EvictedRecords uint64
}

// FoldStats counts how Merged, Study and View reached their fold of the
// trailing frame; every call counts once. Every path except a rebuild
// also folds the rows that arrived since the previous read.
type FoldStats struct {
	// Hits found the cached fold's frame unmoved.
	Hits uint64 `json:"hits"`
	// Slides advanced the cached fold in place to a later frame.
	Slides uint64 `json:"slides"`
	// Rebuilds folded the whole frame afresh: the first read, or a read a
	// day or more behind the previous one.
	Rebuilds uint64 `json:"rebuilds"`
	// Copies counts the reads that deep-copied a fold Merged or Study
	// had lent before changing it (copy-on-write); a read that changes
	// nothing, or rebuilds, copies nothing.
	Copies uint64 `json:"copies"`
	// Compactions counts the slides that emptied a line, slot,
	// port or alias direction and so dropped it from the fold; every
	// other slide skips the drop passes.
	Compactions uint64 `json:"compactions"`
}

// BucketStat is one live hour bucket's fill, for the service's /window
// endpoint.
type BucketStat struct {
	// Hour is the bucket's absolute hour index since the window epoch.
	Hour int64
	// Start is the bucket's wall-clock hour start.
	Start time.Time
	// Records is the number of records aggregated into the bucket.
	Records uint64
}

// NewWindow builds a sliding window of `hours` trailing hours over idx,
// with hour 0 anchored at epoch. hours must be a positive multiple of
// 24 (study frames are day-granular). opts follows NewShardedAggregator
// semantics; when the window is fed by a wire collector (whose streams
// pre-scale counters at the stream boundary) opts.SamplingRate must be
// 1, exactly as the collector forces on its own partials.
func NewWindow(idx *BackendIndex, epoch time.Time, hours int, opts Options) (*Window, error) {
	if hours <= 0 || hours%24 != 0 {
		return nil, fmt.Errorf("flows: window hours must be a positive multiple of 24, got %d", hours)
	}
	idx.ensureBuilt()
	threshold := opts.ScannerThreshold
	if threshold <= 0 {
		threshold = math.MaxInt
	}
	rate := float64(opts.SamplingRate)
	if rate <= 0 {
		rate = 1
	}
	w := &Window{
		idx:       idx,
		opts:      opts,
		epoch:     epoch,
		hours:     hours,
		threshold: threshold,
		rate:      rate,
		ring:      make([]*winBucket, hours+slideReach),
		hourLive:  make([]bool, hours),
		hourRecs:  make([]uint64, hours),
	}
	w.endA.Store(-1)
	return w, nil
}

// Epoch returns the wall-clock anchor of absolute hour 0.
func (w *Window) Epoch() time.Time { return w.epoch }

// Hours returns the window length in hours.
func (w *Window) Hours() int { return w.hours }

// SamplingRate returns the byte-scaling rate the window applies at
// ingest (1 when the feed pre-scales, e.g. a wire collector's streams).
func (w *Window) SamplingRate() uint32 { return uint32(w.rate) }

// End returns the newest absolute hour ever ingested (-1 before any
// record arrived).
func (w *Window) End() int64 { return w.endA.Load() }

// startHour is the oldest hour of the study frame ending at end.
func (w *Window) startHour(end int64) int64 {
	ws := end - int64(w.hours) + 1
	if ws < 0 {
		ws = 0
	}
	return ws
}

// Span returns the current study frame: the wall-clock start of the
// oldest retained hour and the end of the newest. Before the window has
// filled once it spans the first `hours` hours after the epoch.
func (w *Window) Span() (start, end time.Time) {
	return w.span(w.startHour(w.endA.Load()))
}

// span returns the wall-clock bounds of the frame starting at hour ws.
func (w *Window) span(ws int64) (start, end time.Time) {
	return w.epoch.Add(time.Duration(ws) * time.Hour),
		w.epoch.Add(time.Duration(ws+int64(w.hours)) * time.Hour)
}

// Stats returns a snapshot of the window's refusal/eviction counters.
func (w *Window) Stats() WindowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats()
}

// stats is Stats for a caller that holds mu.
func (w *Window) stats() WindowStats {
	return WindowStats{
		PreWindowRecords: w.preWindow,
		LateRecords:      w.late,
		EvictedHours:     w.evictedHours,
		EvictedRecords:   w.evictedRecords,
	}
}

// FoldStats returns the fold-path counts.
func (w *Window) FoldStats() FoldStats {
	return FoldStats{
		Hits: w.hits.Load(), Slides: w.slides.Load(), Rebuilds: w.rebuilds.Load(),
		Copies: w.copies.Load(), Compactions: w.compactions.Load(),
	}
}

// BucketStats returns the live hours' fill, oldest first.
func (w *Window) BucketStats() []BucketStat {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bucketStats()
}

// bucketStats is BucketStats for a caller that holds mu.
func (w *Window) bucketStats() []BucketStat {
	end := w.endA.Load()
	out := make([]BucketStat, 0, w.hours)
	for ah := w.startHour(end); ah <= end; ah++ {
		slot := int(ah % int64(w.hours))
		if !w.hourLive[slot] {
			continue
		}
		out = append(out, BucketStat{
			Hour:    ah,
			Start:   w.epoch.Add(time.Duration(ah) * time.Hour),
			Records: w.hourRecs[slot],
		})
	}
	return out
}

// advanceTo moves the newest hour to ah, past the current one, retiring
// every live hour that falls out of the trailing window. Walking only
// the slots the new hours claim keeps eviction amortized O(1) per hour
// of progress: the hour in slot (end+1+k) mod hours is exactly the one
// hour end+1+k evicts. The buckets of evicted hours are released by the
// next read, or when a later hour claims their ring slot. Caller holds
// mu.
func (w *Window) advanceTo(ah int64) {
	if end := w.endA.Load(); end >= 0 {
		steps := min(ah-end, int64(w.hours))
		for k := int64(0); k < steps; k++ {
			i := int((end + 1 + k) % int64(w.hours))
			if w.hourLive[i] {
				w.evictedHours++
				w.evictedRecords += w.hourRecs[i]
				w.hourLive[i] = false
				w.hourRecs[i] = 0
			}
		}
	}
	w.endA.Store(ah)
}

// route resolves one row's absolute hour to its live bucket, advancing
// (and evicting) as needed. nil means the row was refused: pre-epoch
// (negative) rows are counted, and rows older than the trailing window
// are counted if kept. Caller holds mu.
func (w *Window) route(ah int64, kept bool) *winBucket {
	if ah < 0 {
		w.preWindow++
		return nil
	}
	end := w.endA.Load()
	if ah > end {
		w.advanceTo(ah)
		end = ah
	}
	if end-ah >= int64(w.hours) {
		if kept {
			w.late++
		}
		return nil
	}
	slot := int(ah % int64(len(w.ring)))
	bk := w.ring[slot]
	if bk != nil && bk.ah != ah {
		// The slot's occupant is from a lap the window already left
		// (bk.ah ≤ ah-len(ring): same residue, and ah is in-window).
		w.recycle(bk)
		bk = nil
	}
	if bk == nil {
		bk = w.takeBucket(ah)
		w.ring[slot] = bk
	}
	if !bk.inFlush {
		bk.inFlush = true
		bk.mark = bk.records
		w.touched = append(w.touched, bk)
	}
	return bk
}

// endFlush completes the in-progress flush: credit every touched
// bucket's new records to the frame ledger (or straight to
// EvictedRecords if the flush itself advanced the window past the
// bucket's hour). Caller holds mu.
func (w *Window) endFlush() {
	end := w.endA.Load()
	for i, bk := range w.touched {
		w.touched[i] = nil
		if !bk.inFlush {
			continue // recycled mid-flush; recycle() already credited it
		}
		bk.inFlush = false
		w.rowHint = max(w.rowHint, len(bk.line))
		delta := bk.records - bk.mark
		if end-bk.ah < int64(w.hours) {
			slot := int(bk.ah % int64(w.hours))
			w.hourLive[slot] = true
			w.hourRecs[slot] += delta
		} else {
			w.evictedRecords += delta
		}
	}
	w.touched = w.touched[:0]
}

// takeBucket pops a released bucket (its columns keep their capacity) or
// allocates one presized past the row high-water mark: bucket fills
// creep, and a hint that lags by one row would re-grow every column on
// every bucket. Caller holds mu.
func (w *Window) takeBucket(ah int64) *winBucket {
	if n := len(w.free); n > 0 {
		bk := w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		bk.ah = ah
		return bk
	}
	// The cold-start floor covers feeds that are not hour-ordered
	// (per-line simulation, replays): they open every ring hour before
	// any high-water mark is learned.
	n := max(w.rowHint+w.rowHint/4+16, 256)
	return &winBucket{
		ah:      ah,
		line:    make([]int32, 0, n),
		backend: make([]int32, 0, n),
		port:    make([]uint16, 0, n),
		flags:   make([]uint8, 0, n),
		bytes:   make([]uint32, 0, n),
	}
}

// recycle releases a bucket whose ring slot a later hour claims. That
// hour is hours+slideReach or more past the bucket's, so a fold that
// still holds the bucket starts slideReach or more hours before the
// current frame, and the next read rebuilds rather than subtract it. If
// the bucket is mid-flush its un-ledgered records are credited to
// EvictedRecords (the flush jumped the window past its own hour).
func (w *Window) recycle(bk *winBucket) {
	if bk.inFlush {
		w.evictedRecords += bk.records - bk.mark
		bk.inFlush = false
	}
	w.release(bk)
}

// release empties the bucket and parks it on the free list.
func (w *Window) release(bk *winBucket) {
	bk.line = bk.line[:0]
	bk.backend = bk.backend[:0]
	bk.port = bk.port[:0]
	bk.flags = bk.flags[:0]
	bk.bytes = bk.bytes[:0]
	clear(bk.wide)
	bk.records, bk.mark, bk.folded = 0, 0, 0
	w.free = append(w.free, bk)
}

// IngestBatch implements Sink. Row hours are epoch-relative study hours
// (negative = before the epoch); rows beyond the newest hour advance
// the window. Classification evidence is pooled over the whole flush,
// exactly like ShardPartial.IngestBatch — a scanner's contacts count no
// matter which hour they land in — then every row with an indexed
// backend is appended to its own hour bucket: all of them are contact
// evidence, rows of kept lines also reach the Collector at fold time.
// Classification touches only t, the stream's own tables, so it runs
// before the ingest lock is taken.
func (w *Window) IngestBatch(t *WireTables, b *netflow.RecordBatch) {
	if b.Len() == 0 {
		return
	}
	classifyFlush(t, b, w.threshold)
	t.winID = grown(t.winID, len(t.lines))
	w.appendFlush(t, b)
	t.releaseEnts()
}

// appendFlush routes and appends one classified flush under mu.
func (w *Window) appendFlush(t *WireTables, b *netflow.RecordBatch) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, bid := range b.Backend {
		be := t.backends[bid]
		if be < 0 {
			continue
		}
		li := b.Line[i]
		kept := !t.over(li)
		bk := w.route(int64(b.Hour[i]), kept)
		if bk == nil {
			continue
		}
		lid := t.winID[li] - 1
		if lid < 0 {
			lid = w.lines.id(t.lines[li].addr)
			t.winID[li] = lid + 1
		}
		var flags uint8
		if b.Down[i] {
			flags = rowDown
		}
		if b.Proto[i] == netflow.ProtoUDP {
			flags |= rowUDP
		}
		if kept {
			flags |= rowKept
			bk.records++
		}
		raw := b.Bytes[i]
		bk.add(lid, be, b.Port[i], flags, uint32(min(raw, wideRow)), rowVol(raw, w.rate))
	}
	w.endFlush()
}

// NewWireTables implements Sink: fresh tables resolved against the
// window's index and epoch.
func (w *Window) NewWireTables() *WireTables {
	return &WireTables{idx: w.idx, start: w.epoch}
}

// --- Incremental fold ----------------------------------------------------

// slideReach bounds how far the stable fold slides in one read: a read
// whose frame starts slideReach or more hours after the fold's rebuilds.
// Each ring has slideReach slots past the window length, so every bucket
// a slide subtracts is still in its slot.
const slideReach = 24

// windowFold is one materialized trailing-frame fold of the hours
// [ws, end): the full-frame ContactCounter+Collector plus the line ID
// remap memos that let later rows fold in without re-interning
// addresses.
type windowFold struct {
	ws, end int64
	cc      *ContactCounter
	col     *Collector
	// lent says Merged or Study handed cc and col out: col is finalized,
	// and neither is written again (own copies them first).
	lent bool
	// cnt counts the rows behind the fold's set members; nil until the
	// stable fold first slides its start.
	cnt *rowCounts
	// Memos: window line ID → fold line ID+1 (0 = unmapped).
	ccRemap, colRemap []int32
}

// frameDays returns the day starts of the frame beginning at hour ws.
func (w *Window) frameDays(ws int64) []time.Time {
	days := make([]time.Time, w.hours/24)
	start := w.epoch.Add(time.Duration(ws) * time.Hour)
	for i := range days {
		days[i] = start.Add(time.Duration(i) * 24 * time.Hour)
	}
	return days
}

// newFoldFrame builds an empty fold over the frame [ws, ws+hours).
func (w *Window) newFoldFrame(ws, end int64) *windowFold {
	return &windowFold{
		ws:  ws,
		end: end,
		cc:  NewContactCounter(w.idx),
		col: NewCollector(w.idx, w.frameDays(ws), w.opts),
	}
}

// eachBucket calls fn with every ring bucket whose hour is in [lo, hi).
// Caller holds mu.
func (w *Window) eachBucket(lo, hi int64, fn func(bk *winBucket)) {
	for _, bk := range w.ring {
		if bk != nil && bk.ah >= lo && bk.ah < hi {
			fn(bk)
		}
	}
}

// releaseBelow releases every ring bucket whose hour is below ws, which
// no later frame reaches. Caller holds mu.
func (w *Window) releaseBelow(ws int64) {
	for i, bk := range w.ring {
		if bk != nil && bk.ah < ws {
			w.release(bk)
			w.ring[i] = nil
		}
	}
}

// catchUp folds into f the rows every bucket with hour in [lo, hi)
// gained since f last read it. Caller holds mu.
func (w *Window) catchUp(f *windowFold, lo, hi int64) {
	w.eachBucket(lo, hi, func(bk *winBucket) {
		if bk.folded < len(bk.line) {
			w.foldBucketInto(f, bk, bk.folded)
			bk.folded = len(bk.line)
		}
	})
}

// rowPort is a row's backend-side port key.
func rowPort(flags uint8, port uint16) proto.PortKey {
	k := proto.PortKey{Port: port}
	if flags&rowUDP != 0 {
		k.Transport = proto.UDP
	}
	return k
}

// foldBucketInto replays one bucket's rows from index from on into the
// fold at hour offset bk.ah-f.ws: every row is contact evidence, kept
// rows go through the batch engine's ingest core. A fold that keeps row
// counts counts them. Caller holds mu.
func (w *Window) foldBucketInto(f *windowFold, bk *winBucket, from int) {
	hourOff := int(bk.ah - f.ws)
	cc, col, cnt := f.cc, f.col, f.cnt
	addrs := w.lines.addrs
	ccRemap, colRemap := extend(&f.ccRemap, len(addrs)), extend(&f.colRemap, len(addrs))

	var run lineRun // folds the kept rows of line runLid
	runLid := int32(-1)
	for i := from; i < len(bk.line); i++ {
		lid, be := bk.line[i], bk.backend[i]
		cid := ccRemap[lid]
		if cid == 0 {
			cid = cc.lineID(addrs[lid]) + 1
			ccRemap[lid] = cid
		}
		cc.setContact(int(cid-1), be)

		fl := bk.flags[i]
		if cnt != nil {
			cnt.countContact(int(cid-1), be, fl&rowKept != 0)
		}
		if fl&rowKept == 0 {
			continue // scanner line
		}
		tid := colRemap[lid]
		if tid == 0 {
			tid = col.lineID(addrs[lid]) + 1
			colRemap[lid] = tid
		}
		if lid != runLid {
			run.end()
			run, runLid = col.beginRun(int(tid)-1), lid
		}
		port := rowPort(fl, bk.port[i])
		run.add(be, fl&rowDown != 0, hourOff, port, bk.vol(i, w.rate))
		if cnt != nil {
			cnt.count(col, int(tid)-1, be, fl&rowDown != 0, port)
		}
	}
	run.end()
}

// rebuild folds the frame [ws, end) afresh, line by line: the frame's
// rows are counting-sorted by window line ID into scratch columns, so
// every line's aggregates are loaded once for all its hours instead of
// once per hour. A line's rows keep their hour-major order and every
// aggregate is an exact sum or a set union, so the result equals a
// bucket-by-bucket fold's, and the fold holds every row of the frame's
// buckets. Caller holds mu.
func (w *Window) rebuild(ws, end int64) *windowFold {
	f := w.newFoldFrame(ws, end)
	var bks []*winBucket
	w.eachBucket(ws, end, func(bk *winBucket) {
		bks = append(bks, bk)
		bk.folded = len(bk.line)
	})
	if len(bks) == 0 {
		return f
	}
	// pos[l] is where line l's rows start, until the scatter advances it
	// to where they end; pos[n] is the row count.
	n := len(w.lines.addrs)
	pos := make([]int, n+1)
	for _, bk := range bks {
		for _, lid := range bk.line {
			pos[lid+1]++
		}
	}
	lines := 0
	for l := 1; l <= n; l++ {
		if pos[l] != 0 {
			lines++
		}
		pos[l] += pos[l-1]
	}
	cols := getRowCols(pos[n])
	defer rowColsPool.Put(cols)
	f.cc.reserveLines(lines, &w.lines)
	f.col.reserveLines(lines, &w.lines)
	w.foldLines(f, bks, pos, cols)
	return f
}

// rowCols are a rebuild's scratch columns, which the frame's rows are
// scattered into. A scratch row carries its scaled volume, so its
// volume, backend and hour share one 16-byte element and the scatter
// writes three cache lines a row, not five; port and flags keep columns
// of their own, so a scratch row takes 19 bytes, not a padded 24.
type rowCols struct {
	row   []lineRow
	port  []uint16
	flags []uint8
}

type lineRow struct {
	bytes   uint64
	backend int32
	// hour is the row's offset from the frame start, which is below
	// both the row's absolute hour (an int32 at ingest) and the window
	// length (at most 2^16 on Restore), so it fits any window.
	hour int32
}

// rowColsPool recycles the scratch between rebuilds: a process that
// rebuilds again before two garbage collections have passed (a replay,
// catch-up, a feed whose late rows force a rebuild on every read)
// reuses it instead of allocating 19 bytes a row afresh.
var rowColsPool sync.Pool

// getRowCols returns scratch columns for n rows, pooled or new.
func getRowCols(n int) *rowCols {
	if c, _ := rowColsPool.Get().(*rowCols); c != nil && cap(c.row) >= n {
		c.row, c.port, c.flags = c.row[:n], c.port[:n], c.flags[:n]
		return c
	}
	return &rowCols{row: make([]lineRow, n), port: make([]uint16, n), flags: make([]uint8, n)}
}

// foldLines scatters the rows of bks into cols by line ID, at the
// offsets pos counted, and folds each line's run into f: every row is
// contact evidence, kept rows go through the batch engine's ingest core.
func (w *Window) foldLines(f *windowFold, bks []*winBucket, pos []int, cols *rowCols) {
	rows, port, flags := cols.row, cols.port, cols.flags
	for _, bk := range bks {
		h := int32(bk.ah - f.ws)
		n := len(bk.line)
		bb, bp, bf := bk.backend[:n], bk.port[:n], bk.flags[:n]
		for i, lid := range bk.line {
			r := pos[lid]
			pos[lid] = r + 1
			rows[r] = lineRow{bytes: bk.vol(i, w.rate), backend: bb[i], hour: h}
			port[r], flags[r] = bp[i], bf[i]
		}
	}

	cc, col, addrs := f.cc, f.col, w.lines.addrs
	n := len(pos) - 1
	ccRemap, colRemap := extend(&f.ccRemap, n), extend(&f.colRemap, n)
	lo := 0
	for lid, hi := range pos[:n] {
		if lo == hi {
			continue
		}
		addr := addrs[lid]
		cid := cc.lineID(addr)
		ccRemap[lid] = cid + 1
		bits, added := cc.lineBits(int(cid)), int32(0)
		tid := int32(-1)
		var run lineRun
		fls, prs := flags[lo:hi], port[lo:hi]
		for i, r := range rows[lo:hi] {
			// setContact, with the line's count kept in a register.
			word, bit := &bits[r.backend>>6], uint(r.backend)&63
			added += int32(^*word >> bit & 1)
			*word |= 1 << bit
			fl := fls[i]
			if fl&rowKept == 0 {
				continue // scanner row
			}
			if tid < 0 {
				tid = col.lineID(addr)
				run = col.beginRun(int(tid))
			}
			run.add(r.backend, fl&rowDown != 0, int(r.hour), rowPort(fl, prs[i]), r.bytes)
		}
		run.end()
		cc.n[cid] += added
		colRemap[lid] = tid + 1
		lo = hi
	}
}

// countBucket counts the rows of a bucket already folded into f.
func countBucket(f *windowFold, bk *winBucket) {
	for i, lid := range bk.line[:bk.folded] {
		fl := bk.flags[i]
		f.cnt.countContact(int(f.ccRemap[lid])-1, bk.backend[i], fl&rowKept != 0)
		if fl&rowKept != 0 {
			f.cnt.count(f.col, int(f.colRemap[lid])-1, bk.backend[i], fl&rowDown != 0, rowPort(fl, bk.port[i]))
		}
	}
}

// slideBucket applies a move of f's start to ws to the folded rows of
// one bucket f holds: an hour below ws leaves the fold, an hour whose
// frame day changes moves its daily volumes. The hour-indexed columns
// shift separately.
func (w *Window) slideBucket(f *windowFold, bk *winBucket, ws int64) {
	from, to := int(bk.ah-f.ws)/24, -1
	if bk.ah >= ws {
		if to = int(bk.ah-ws) / 24; to == from {
			return
		}
	}
	cc, col := f.cc, f.col
	for i, lid := range bk.line[:bk.folded] {
		be, fl := bk.backend[i], bk.flags[i]
		kept := fl&rowKept != 0
		line, down, port := int(f.colRemap[lid])-1, fl&rowDown != 0, rowPort(fl, bk.port[i])
		if to >= 0 {
			if kept {
				col.moveDay(line, be, down, port, from, to, bk.vol(i, w.rate))
			}
			continue
		}
		cid := int(f.ccRemap[lid]) - 1
		lastRow, lastKept := f.cnt.uncountContact(cid, be, kept)
		if lastRow && cc.clearContact(cid, be) {
			f.cnt.emptied |= emptiedContacts
		}
		if kept {
			col.subtract(f.cnt, line, be, down, from, port, bk.vol(i, w.rate))
		}
		if lastKept {
			col.relink(f.cnt, line, f.cnt.contacts[cid])
		}
	}
}

// slide advances the stable fold st from [st.ws, st.end) to [ws, end)
// in place and folds the rows that arrived since the last read. The
// folded rows of hours below ws are subtracted at their old day (their
// buckets keep their ring slots: a later hour claims one only
// hours+slideReach hours on, and a fold that far behind rebuilds),
// in-frame hours whose frame day changes move their daily volumes,
// hour-indexed columns shift left, every bucket in the new frame folds
// its rows past its folded mark, and what the slide emptied is dropped.
// Row counts are taken on the first slide of the start after a rebuild,
// so a fold that never slides never pays for them. A frame that did not
// move only catches up. Caller holds foldMu and mu.
func (w *Window) slide(st *windowFold, ws, end int64) {
	k := int(ws - st.ws)
	if k > 0 {
		if st.cnt == nil {
			st.cnt = newRowCounts(st.col)
			w.eachBucket(st.ws, st.end, func(bk *winBucket) { countBucket(st, bk) })
		}
		w.eachBucket(st.ws, st.end, func(bk *winBucket) { w.slideBucket(st, bk, ws) })
		st.col.shiftHours(k, w.frameDays(ws))
		st.ws = ws
	}
	w.catchUp(st, ws, end)
	st.end = end
	if k > 0 && st.compact() {
		w.compactions.Add(1)
	}
}

// compact drops the lines, slots, ports and per-alias aggregates a
// slide left without rows, so the fold holds exactly what a rebuild of
// its frame would, and renumbers the line memos (a dropped line's
// address re-interns if its rows come back). It runs only the passes
// for what the slide emptied, and reports whether anything had.
func (f *windowFold) compact() bool {
	emptied := f.cnt.emptied
	if emptied == 0 {
		return false
	}
	if emptied&emptiedContacts != 0 {
		if remap := f.cc.compact(); remap != nil {
			f.cnt.contacts = compactStride(f.cnt.contacts, 1, remap)
			remapMemo(f.ccRemap, remap)
		}
	}
	if remap := f.col.compact(f.cnt); remap != nil {
		remapMemo(f.colRemap, remap)
	}
	f.cnt.emptied = 0
	return true
}

// remapMemo renumbers a line memo (fold line ID+1, 0 = unmapped)
// through a compaction's renumbering.
func remapMemo(memo []int32, remap []int32) {
	for lid, id := range memo {
		if id != 0 {
			memo[lid] = remap[id-1] + 1
		}
	}
}

// unfolded reports whether a ring bucket with hour in [lo, hi) holds
// rows past its folded mark. Caller holds mu.
func (w *Window) unfolded(lo, hi int64) bool {
	for _, bk := range w.ring {
		if bk != nil && bk.folded < len(bk.line) && bk.ah >= lo && bk.ah < hi {
			return true
		}
	}
	return false
}

// own returns st for a read that writes to it: st itself, or, when
// Merged or Study lent it out, a copy of its aggregates that replaces it
// as the stable fold. The row counts and line memos move to the copy,
// since only the window reads them. Caller holds foldMu and mu.
func (w *Window) own(st *windowFold) *windowFold {
	if !st.lent {
		return st
	}
	cp := *st
	cp.cc, cp.col, cp.lent = st.cc.clone(), st.col.clone(), false
	w.stable = &cp
	w.copies.Add(1)
	return &cp
}

// foldLocked brings the stable fold to the current trailing frame, the
// newest hour included, and returns it. It is slid in place (or only
// caught up, when the frame did not move) unless the frame moved
// slideReach hours or more, and rebuilt then. A lent fold is copied before
// a slide or a catch-up writes to it; a read of an unmoved frame
// without new rows writes nothing. The buckets the frame left are
// released. Caller holds foldMu and mu.
func (w *Window) foldLocked() *windowFold {
	end := w.endA.Load() + 1
	ws := w.startHour(end - 1)
	st := w.stable
	switch {
	case st == nil || ws-st.ws >= slideReach:
		// Cold start, or a read too far behind the last one.
		st = w.rebuild(ws, end)
		w.stable = st
		w.rebuilds.Add(1)
	case st.ws == ws && st.end == end:
		w.hits.Add(1)
		if w.unfolded(ws, end) {
			st = w.own(st)
			w.catchUp(st, ws, end)
		}
	default:
		w.slides.Add(1)
		st = w.own(st)
		w.slide(st, ws, end)
	}
	w.releaseBelow(ws)
	return st
}

// fold runs foldLocked under mu and releases it on every exit. A fold
// that panics part-way is dropped, so the next read rebuilds instead of
// reading it. Caller holds foldMu.
func (w *Window) fold() (st *windowFold) {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer func() {
		if st == nil {
			w.stable = nil
		}
	}()
	return w.foldLocked()
}

// View brings the cached fold of the current trailing frame up to date
// and lends it to fn with the frame's wall-clock bounds, without
// copying it. The ingest lock is released first, so ingest continues
// while fn runs; other reads wait. fn must treat cc and col as
// read-only and must not retain them, nor a Study it takes of col, past
// its return: unless Merged or Study lent the same fold, the next read
// folds into them. col.Study() is allowed (View clears the finalization
// afterwards, except on a fold Merged or Study lent, which stays
// finalized for the callers that keep it).
func (w *Window) View(fn func(cc *ContactCounter, col *Collector, start, end time.Time)) {
	w.foldMu.Lock()
	defer w.foldMu.Unlock()
	st := w.fold()
	if !st.lent {
		defer func() { st.col.finalized = false }()
	}
	start, end := w.span(st.ws)
	fn(st.cc, st.col, start, end)
}

// Merged folds the surviving hour buckets into one ContactCounter and
// Collector over the current trailing frame (the last `hours` hours —
// anchored at the epoch until the window has filled once). It lends the
// window's cached fold, finalized, without copying it: the caller may
// keep both, must treat them as read-only (the Collector refuses
// ingest and merges), and may take col.Study(). The window never writes
// to a lent fold again: the first read that would change it copies it
// (FoldStats.Copies), so what the caller holds stays the frame it was
// lent, and repeated calls on an idle window return the same values.
func (w *Window) Merged() (cc *ContactCounter, col *Collector) {
	w.foldMu.Lock()
	defer w.foldMu.Unlock()
	st := w.fold()
	if !st.lent {
		st.col.finalized, st.lent = true, true
	}
	return st.cc, st.col
}

// Study returns the finalized trailing-window analysis: the merged
// ContactCounter (Figure 5's evidence) and the Study over the surviving
// hours, taken of the fold Merged lends (finalized once, and never
// written again; the window copies it before a later read changes it).
// The Study keeps no lazy state and is safe for concurrent readers, who
// must treat the returned values as read-only.
func (w *Window) Study() (*ContactCounter, *Study) {
	cc, col := w.Merged()
	return cc, col.Study()
}
