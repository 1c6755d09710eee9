package flows

import (
	"fmt"
	"math"
	"runtime"
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
// The window keeps no aggregates of its own. Each ingest shard owns a
// ring of hour buckets (absolute hour mod window hours), and a bucket is
// an append-only columnar row log: five parallel columns — shard line
// ID, dense backend ID, backend-side port, row flags (kept, down, udp)
// and the already-scaled byte volume — one row per routed record.
// Ingest classifies each flush interval's lines against the scanner
// threshold and appends; eviction truncates the columns and parks them
// on the shard's free list, so steady-state eviction allocates nothing.
//
// Study()/Merged() fold the live buckets into a full-frame
// ContactCounter+Collector by replaying rows: every row sets its
// contact bit, kept rows go through Collector.ingestDense — the batch
// engine's own ingest core — at hour offset (bucket hour − frame start).
// The fold is incremental: the last fold over [ws, end) is cached and
// revalidated against per-bucket write versions; an unchanged frame
// costs one clone plus a re-fold of the newest hour's buckets. Because
// the window and the batch pipeline share one aggregation core and
// every aggregate is order-independent and exact (integer-valued
// float64 volumes, see Collector.Merge), a window that never evicted is
// byte-identical to a batch run over the same feed, and an evicted
// window matches a batch run over only the surviving hours' flushes
// (TestWindowEvictionMatchesBatch).
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
	// NewWireTables returns empty ID tables bound to this sink's index,
	// exclusion set and study start.
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

// maxWindowShards caps the ingest shard fan-out; past a handful of
// shards the fold/snapshot cost of walking every shard's ring dominates
// any additional ingest parallelism.
const maxWindowShards = 8

// Window is an hour-granular sliding study over the dense aggregation
// core. It is safe for concurrent use: many collector streams may
// flush into one Window (each stream lands on one ingest shard) while
// Study/Merged/Snapshot/Stats readers run.
type Window struct {
	idx  *BackendIndex
	opts Options

	epoch     time.Time
	hours     int
	threshold int
	rate      float64

	// endA mirrors end for lock-free reads on the ingest fast path and
	// the End()/Span() accessors.
	endA atomic.Int64

	preWindow atomic.Uint64
	late      atomic.Uint64

	// writeVer stamps every completed flush; fold caches revalidate
	// against the per-bucket copies of it.
	writeVer atomic.Uint64

	// frameMu guards the frame ledger: end, the per-hour liveness and
	// record totals, and the eviction counters. Every mutation happens
	// inside some shard's critical section, so a reader holding all
	// shard locks may read these fields without frameMu.
	frameMu        sync.Mutex
	end            int64
	hourLive       []bool
	hourRecs       []uint64
	evictedHours   uint64
	evictedRecords uint64

	shards []*winShard
	// rr round-robins producers' tables onto shards.
	rr atomic.Uint32

	// foldMu serializes Merged/Study and guards the fold caches.
	foldMu sync.Mutex
	stable *windowFold
	study  *winStudyCache
}

// winShard is one ingest shard: its own line intern table, its own ring
// of hour buckets, a free list of retired buckets, and the recycled
// per-flush line entries. All fields are guarded by mu.
type winShard struct {
	w  *Window
	mu sync.Mutex

	lines lineTab

	ring []*winBucket
	free []*winBucket
	// rowHint is the row high-water mark across the shard's buckets;
	// fresh buckets presize their columns from it so a chronological
	// feed's row appends stay inside capacity.
	rowHint int
	// touched lists the buckets the in-progress flush wrote to.
	touched []*winBucket
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
	// ver is the writeVer of the last flush that touched the bucket;
	// mark/inFlush track the in-progress flush for the frame ledger.
	ver     uint64
	mark    uint64
	inFlush bool

	line    []int32 // shard line ID
	backend []int32 // dense backend ID
	port    []uint16
	flags   []uint8
	bytes   []float64 // scaled volume
}

// add appends one row.
func (bk *winBucket) add(line, backend int32, port uint16, flags uint8, bytes float64) {
	bk.line = append(bk.line, line)
	bk.backend = append(bk.backend, backend)
	bk.port = append(bk.port, port)
	bk.flags = append(bk.flags, flags)
	bk.bytes = append(bk.bytes, bytes)
}

// WindowStats counts what the window refused or retired.
type WindowStats struct {
	// PreWindowRecords counts records timestamped before the window
	// epoch — there is no hour to attribute them to.
	PreWindowRecords uint64
	// LateRecords counts records older than the trailing window at
	// arrival time: their hour was already evicted (or never lived).
	LateRecords uint64
	// EvictedHours counts hour buckets retired as the window advanced.
	EvictedHours uint64
	// EvictedRecords counts the aggregated records those buckets held.
	EvictedRecords uint64
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
		end:       -1,
		hourLive:  make([]bool, hours),
		hourRecs:  make([]uint64, hours),
	}
	w.endA.Store(-1)
	w.setShards(min(max(runtime.GOMAXPROCS(0), 1), maxWindowShards))
	return w, nil
}

// setShards builds the window's n empty ingest shards.
func (w *Window) setShards(n int) {
	w.shards = make([]*winShard, n)
	for i := range w.shards {
		w.shards[i] = &winShard{w: w, ring: make([]*winBucket, w.hours)}
	}
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
	ws := w.startHour(w.endA.Load())
	return w.epoch.Add(time.Duration(ws) * time.Hour),
		w.epoch.Add(time.Duration(ws+int64(w.hours)) * time.Hour)
}

// Stats returns a snapshot of the window's refusal/eviction counters.
func (w *Window) Stats() WindowStats {
	w.frameMu.Lock()
	defer w.frameMu.Unlock()
	return WindowStats{
		PreWindowRecords: w.preWindow.Load(),
		LateRecords:      w.late.Load(),
		EvictedHours:     w.evictedHours,
		EvictedRecords:   w.evictedRecords,
	}
}

// BucketStats returns the live hours' fill, oldest first.
func (w *Window) BucketStats() []BucketStat {
	w.frameMu.Lock()
	defer w.frameMu.Unlock()
	out := make([]BucketStat, 0, w.hours)
	for ah := w.startHour(w.end); ah <= w.end; ah++ {
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

// lockShards/unlockShards take every shard's ingest lock in index
// order (the global lock order is foldMu → shard locks → frameMu).
func (w *Window) lockShards() {
	for _, sh := range w.shards {
		sh.mu.Lock()
	}
}

func (w *Window) unlockShards() {
	for i := len(w.shards) - 1; i >= 0; i-- {
		w.shards[i].mu.Unlock()
	}
}

// advanceTo moves the newest hour to ah, retiring every live hour that
// falls out of the trailing window. Walking only the slots the new
// hours claim keeps eviction amortized O(1) per hour of progress: the
// hour in slot (end+1+k) mod hours is exactly the one hour end+1+k
// evicts. Shard buckets for evicted hours are recycled lazily, when
// their ring slot is next claimed.
func (w *Window) advanceTo(ah int64) {
	w.frameMu.Lock()
	defer w.frameMu.Unlock()
	if ah <= w.end {
		return
	}
	if w.end >= 0 {
		steps := ah - w.end
		if steps > int64(w.hours) {
			steps = int64(w.hours)
		}
		for k := int64(0); k < steps; k++ {
			i := int((w.end + 1 + k) % int64(w.hours))
			if w.hourLive[i] {
				w.evictedHours++
				w.evictedRecords += w.hourRecs[i]
				w.hourLive[i] = false
				w.hourRecs[i] = 0
			}
		}
	}
	w.end = ah
	w.endA.Store(ah)
}

// route resolves one row's absolute hour to this shard's live bucket,
// advancing (and evicting) as needed. nil means the row was refused
// (pre-epoch — negative — or older than the trailing window) and counted.
func (sh *winShard) route(ah int64) *winBucket {
	w := sh.w
	if ah < 0 {
		w.preWindow.Add(1)
		return nil
	}
	end := w.endA.Load()
	if ah > end {
		w.advanceTo(ah)
		end = w.endA.Load()
	}
	if end-ah >= int64(w.hours) {
		w.late.Add(1)
		return nil
	}
	slot := int(ah % int64(w.hours))
	bk := sh.ring[slot]
	if bk != nil && bk.ah != ah {
		// The slot's occupant is from a lap the window already left
		// (bk.ah ≤ ah-hours: same residue, and ah is in-window).
		sh.recycle(bk)
		bk = nil
	}
	if bk == nil {
		bk = sh.takeBucket(ah)
		sh.ring[slot] = bk
	}
	if !bk.inFlush {
		bk.inFlush = true
		bk.mark = bk.records
		sh.touched = append(sh.touched, bk)
	}
	return bk
}

// endFlush completes the in-progress flush: stamp a fresh write
// version on every touched bucket and credit its new records to the
// frame ledger (or straight to EvictedRecords if the flush itself
// advanced the window past the bucket's hour).
func (sh *winShard) endFlush() {
	if len(sh.touched) == 0 {
		return
	}
	w := sh.w
	ver := w.writeVer.Add(1)
	w.frameMu.Lock()
	for i, bk := range sh.touched {
		sh.touched[i] = nil
		if !bk.inFlush {
			continue // recycled mid-flush; recycle() already credited it
		}
		bk.inFlush = false
		bk.ver = ver
		if n := len(bk.line); n > sh.rowHint {
			sh.rowHint = n
		}
		delta := bk.records - bk.mark
		if w.end-bk.ah < int64(w.hours) {
			slot := int(bk.ah % int64(w.hours))
			w.hourLive[slot] = true
			w.hourRecs[slot] += delta
		} else {
			w.evictedRecords += delta
		}
	}
	w.frameMu.Unlock()
	sh.touched = sh.touched[:0]
}

// takeBucket pops a retired bucket (its columns keep their capacity) or
// allocates one presized past the shard's row high-water mark: bucket
// fills creep, and a hint that lags by one row would re-grow every
// column on every bucket.
func (sh *winShard) takeBucket(ah int64) *winBucket {
	if n := len(sh.free); n > 0 {
		bk := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		bk.ah = ah
		return bk
	}
	// The cold-start floor covers feeds that are not hour-ordered
	// (per-line simulation, replays): they open every ring hour before
	// any high-water mark is learned.
	n := max(sh.rowHint+sh.rowHint/4+16, 256)
	return &winBucket{
		ah:      ah,
		line:    make([]int32, 0, n),
		backend: make([]int32, 0, n),
		port:    make([]uint16, 0, n),
		flags:   make([]uint8, 0, n),
		bytes:   make([]float64, 0, n),
	}
}

// recycle empties the bucket and parks it on the shard free list. If
// the bucket is mid-flush its un-ledgered records are credited to
// EvictedRecords (the flush jumped the window past its own hour).
func (sh *winShard) recycle(bk *winBucket) {
	if bk.inFlush {
		w := sh.w
		w.frameMu.Lock()
		w.evictedRecords += bk.records - bk.mark
		w.frameMu.Unlock()
		bk.inFlush = false
	}
	bk.line = bk.line[:0]
	bk.backend = bk.backend[:0]
	bk.port = bk.port[:0]
	bk.flags = bk.flags[:0]
	bk.bytes = bk.bytes[:0]
	bk.records, bk.mark, bk.ver = 0, 0, 0
	sh.free = append(sh.free, bk)
}

// IngestBatch implements Sink. Row hours are epoch-relative study hours
// (negative = before the epoch); rows beyond the newest hour advance
// the window. Classification evidence is pooled over the whole flush,
// exactly like ShardPartial.IngestBatch — a scanner's contacts count no
// matter which hour they land in — then every row with an indexed
// backend is appended to its own hour bucket: all of them are contact
// evidence, rows of kept lines also reach the Collector at fold time.
// The tables stay bound to one ingest shard (their window memos are its
// line IDs), which is the per-stream parallelism unit.
func (w *Window) IngestBatch(t *WireTables, b *netflow.RecordBatch) {
	if b.Len() == 0 {
		return
	}
	sh := t.shard
	sh.mu.Lock()
	defer sh.mu.Unlock()
	classifyFlush(t, b, w.threshold)
	t.winID = grown(t.winID, len(t.lines))

	for i, bid := range b.Backend {
		be := t.backends[bid]
		if be < 0 {
			continue
		}
		bk := sh.route(int64(b.Hour[i]))
		if bk == nil {
			continue
		}
		li := b.Line[i]
		lid := t.winID[li] - 1
		if lid < 0 {
			lid = sh.lines.id(t.lines[li].addr)
			t.winID[li] = lid + 1
		}
		var flags uint8
		if b.Down[i] {
			flags = rowDown
		}
		if b.Proto[i] == netflow.ProtoUDP {
			flags |= rowUDP
		}
		if !t.over(li) {
			flags |= rowKept
			bk.records++
		}
		bk.add(lid, be, b.Port[i], flags, float64(b.Bytes[i])*w.rate)
	}

	t.releaseEnts()
	sh.endFlush()
}

// NewWireTables implements Sink: fresh tables resolved against the
// window's index, exclusion set and epoch, bound round-robin to one
// ingest shard.
func (w *Window) NewWireTables() *WireTables {
	sh := w.shards[int((w.rr.Add(1)-1)%uint32(len(w.shards)))]
	return &WireTables{idx: w.idx, excluded: w.opts.Excluded, start: w.epoch, shard: sh}
}

// --- Incremental fold ----------------------------------------------------

// windowFold is one materialized trailing-frame fold: the full-frame
// ContactCounter+Collector plus the per-shard line ID remap memos that
// let later buckets fold in without re-interning addresses.
type windowFold struct {
	ws, end int64
	// ver is the writeVer the fold is current to (only meaningful on
	// the cached stable fold).
	ver uint64
	cc  *ContactCounter
	col *Collector
	// Per-shard memos: shard line ID → fold line ID+1 (0 = unmapped).
	ccRemap, colRemap [][]int32
}

// winStudyCache memoizes the last Study() result for an unchanged
// window state.
type winStudyCache struct {
	ver uint64
	end int64
	cc  *ContactCounter
	st  *Study
}

// newFoldFrame builds an empty fold over the frame [ws, ws+hours).
func (w *Window) newFoldFrame(ws, end int64) *windowFold {
	days := make([]time.Time, w.hours/24)
	start := w.epoch.Add(time.Duration(ws) * time.Hour)
	for i := range days {
		days[i] = start.Add(time.Duration(i) * 24 * time.Hour)
	}
	n := len(w.shards)
	return &windowFold{
		ws:       ws,
		end:      end,
		cc:       NewContactCounter(w.idx),
		col:      NewCollector(w.idx, days, w.opts),
		ccRemap:  make([][]int32, n),
		colRemap: make([][]int32, n),
	}
}

// cloneFold deep-copies a fold so the stable cache survives the caller
// mutating (or keeping) the returned aggregates.
func cloneFold(f *windowFold) *windowFold {
	return &windowFold{
		ws:       f.ws,
		end:      f.end,
		ver:      f.ver,
		cc:       f.cc.clone(),
		col:      f.col.clone(),
		ccRemap:  cloneNested(f.ccRemap),
		colRemap: cloneNested(f.colRemap),
	}
}

// dirtySince reports whether any live bucket with hour in [lo, hi) was
// flushed into after write version ver. Caller holds all shard locks.
func (w *Window) dirtySince(lo, hi int64, ver uint64) bool {
	for _, sh := range w.shards {
		for _, bk := range sh.ring {
			if bk != nil && bk.ah >= lo && bk.ah < hi && bk.ver > ver {
				return true
			}
		}
	}
	return false
}

// foldRange folds every live bucket with hour in [lo, hi) into f.
// Caller holds all shard locks.
func (w *Window) foldRange(f *windowFold, lo, hi int64) {
	for si, sh := range w.shards {
		for _, bk := range sh.ring {
			if bk != nil && bk.ah >= lo && bk.ah < hi {
				w.foldBucketInto(f, si, sh, bk)
			}
		}
	}
}

// foldBucketInto replays one bucket's rows into the fold at hour offset
// bk.ah-f.ws: every row is contact evidence, kept rows go through the
// batch engine's ingest core.
func (w *Window) foldBucketInto(f *windowFold, si int, sh *winShard, bk *winBucket) {
	hourOff := int(bk.ah - f.ws)
	cc, col := f.cc, f.col
	f.ccRemap[si] = grown(f.ccRemap[si], len(sh.lines.addrs))
	f.colRemap[si] = grown(f.colRemap[si], len(sh.lines.addrs))
	ccRemap, colRemap := f.ccRemap[si], f.colRemap[si]

	for i, lid := range bk.line {
		be := bk.backend[i]
		cid := ccRemap[lid]
		if cid == 0 {
			cid = cc.lineID(sh.lines.addrs[lid]) + 1
			ccRemap[lid] = cid
		}
		setBit(cc.bits[int(cid-1)*cc.words:], int(be))

		fl := bk.flags[i]
		if fl&rowKept == 0 {
			continue // scanner or excluded line
		}
		tid := colRemap[lid]
		if tid == 0 {
			tid = col.lineID(sh.lines.addrs[lid]) + 1
			colRemap[lid] = tid
		}
		port := proto.PortKey{Port: bk.port[i]}
		if fl&rowUDP != 0 {
			port.Transport = proto.UDP
		}
		col.ingestDense(int(tid)-1, be, fl&rowDown != 0, hourOff, port, bk.bytes[i])
	}
}

// currentFoldLocked returns a private fold of the current trailing
// frame. The stable cache covers [ws, end) — it is reused untouched
// when nothing below the newest hour changed, extended in place while
// the frame start is pinned at the epoch, and rebuilt otherwise; the
// newest (still-hot) hour is overlaid onto a clone every call. Caller
// holds foldMu and all shard locks.
func (w *Window) currentFoldLocked() *windowFold {
	end := w.endA.Load()
	ws := w.startHour(end)
	ver := w.writeVer.Load()
	st := w.stable
	switch {
	case st != nil && st.ws == ws && st.end == end && !w.dirtySince(ws, end, st.ver):
		// Cache hit: nothing below the newest hour changed.
	case st != nil && st.ws == ws && st.end < end && !w.dirtySince(ws, st.end, st.ver):
		// Frame start unchanged (pre-fill): fold in the hours the end
		// passed since, including the previously-hot st.end hour.
		w.foldRange(st, st.end, end)
		st.end = end
		st.ver = ver
	default:
		st = w.newFoldFrame(ws, end)
		w.foldRange(st, ws, end)
		st.ver = ver
		w.stable = st
	}
	out := cloneFold(st)
	if end >= 0 {
		w.foldRange(out, end, end+1)
	}
	return out
}

// Merged folds the surviving hour buckets into one ContactCounter and
// Collector over the current trailing frame (the last `hours` hours —
// anchored at the epoch until the window has filled once). The fold is
// served from the incremental cache plus a re-fold of the newest
// hour's buckets; the returned aggregates are private copies, so the
// window stays live and repeated calls are independent.
func (w *Window) Merged() (*ContactCounter, *Collector) {
	w.foldMu.Lock()
	defer w.foldMu.Unlock()
	w.lockShards()
	f := w.currentFoldLocked()
	w.unlockShards()
	return f.cc, f.col
}

// Study returns the finalized trailing-window analysis: the merged
// ContactCounter (Figure 5's evidence) and the Study over the surviving
// hours, a view over a private fold's columns (the fold's collector is
// finalized here and never written again). The result is cached until
// the next completed flush and handed to every caller, so a serving
// endpoint polling an idle window pays nothing; the Study keeps no lazy
// state and is safe for concurrent readers, who must treat the returned
// values, and the series the accessors return, as read-only.
func (w *Window) Study() (*ContactCounter, *Study) {
	w.foldMu.Lock()
	defer w.foldMu.Unlock()
	w.lockShards()
	end := w.endA.Load()
	ver := w.writeVer.Load()
	if sc := w.study; sc != nil && sc.ver == ver && sc.end == end {
		w.unlockShards()
		return sc.cc, sc.st
	}
	f := w.currentFoldLocked()
	w.unlockShards()
	st := f.col.Study()
	w.study = &winStudyCache{ver: ver, end: end, cc: f.cc, st: st}
	return f.cc, st
}
