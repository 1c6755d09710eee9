// Package collector is the wire half of the ISP ingestion path: it
// consumes the dictionary streams exported by isp.SimulateLinesToWire
// (or real routers' v5/v9/IPFIX datagrams over UDP and IPFIX message
// streams), decodes and validates every packet, restores the sampling
// scale each stream advertises (sampled counters × rate — the paper's
// "estimate the exchanged traffic considering the sampling rate",
// Section 5.6), and folds each stream into its own worker-local
// flows.ShardPartial.
// Partials merge order-independently, so a 1-, 4-, or 8-stream ingest
// of the same feed produces byte-identical figures — the wire is a
// transparent seam in the simulate→aggregate pipeline.
//
// Stream model: one io.Reader (or one TCP connection, or one UDP source
// address) is one shard. The exporter guarantees any subscriber line's
// records stay within one stream; flush frames mark line-batch
// boundaries so scanner classification stays incremental. Streams
// without flush markers are still correct — EOF acts as one final flush
// over every pending row, trading memory for protocol simplicity. Each
// stream decodes on its ingest goroutine and folds on one of its own
// (fold.go), so one stream can keep two cores busy.
package collector

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"iotmap/internal/core/flows"
	"iotmap/internal/netflow"
)

// ErrorPolicy decides what a framed-stream fault (corrupt envelope,
// undecodable payload, truncation, transport error) does to the study.
type ErrorPolicy int

const (
	// Abort fails the stream on the first fault — the original
	// fail-loudly behavior and still the default: a corrupt feed should
	// not silently aggregate a partial week.
	Abort ErrorPolicy = iota
	// DropFrame discards the bad frame and keeps the stream: envelope
	// corruption triggers a resync scan to the next "NF" magic
	// (Stats.ResyncEvents), undecodable payloads are dropped in place
	// (Stats.DroppedFrames), and a dead transport ends the stream early
	// with everything ingested so far still counted.
	DropFrame
	// QuarantineStream discards the entire stream's contribution on its
	// first fault — the analysis proceeds as if the feed had never
	// connected (Stats.QuarantinedStreams), while its wire counters
	// remain visible for diagnosis.
	QuarantineStream
)

// String names the policy for logs and stats output.
func (p ErrorPolicy) String() string {
	switch p {
	case DropFrame:
		return "drop-frame"
	case QuarantineStream:
		return "quarantine-stream"
	default:
		return "abort"
	}
}

// Config sizes a collector.
type Config struct {
	// Index classifies flow endpoints (required).
	Index *flows.BackendIndex
	// Days is the study period (required).
	Days []time.Time
	// Opts configures the analysis exactly like the in-memory pipeline's
	// NewShardedAggregator. Opts.SamplingRate is the *fallback* scale for
	// record rows: an IPFIX stream's, or a UDP source's that sent no v5
	// datagram, whose headers advertise no rate. Dictionary streams carry
	// their rate in the hello frame.
	Opts flows.Options
	// Policy picks the stream-fault response; zero value is Abort.
	Policy ErrorPolicy
	// StallTimeout, when > 0, arms a per-stream watchdog: a stream whose
	// reader makes no progress for a full interval is aborted
	// (Stats.StallTimeouts) and then handled per Policy. Zero disables.
	StallTimeout time.Duration
	// Tap, when set, wraps every stream's reader before decoding —
	// the seam where a fault-injection harness (internal/faultwire)
	// splices into the wire path. The collector keeps the raw reader for
	// abort/drain control, so a tap cannot deadlock the exporter.
	Tap func(stream int, source string, r io.Reader) io.Reader
	// Window, when set, switches the collector from batch to sliding-
	// window mode: every stream folds into this shared flows.Window
	// instead of a per-stream ShardPartial, Finalize returns
	// Window.Merged(), and completed streams' dictionary state is
	// retained (DictStates) so a service can checkpoint it. Window mode
	// requires Policy != QuarantineStream (a shared sink cannot retract
	// one stream's contribution), Window.Epoch() == Days[0], and
	// Window.SamplingRate() == 1 (the wire path pre-scales counters).
	Window *flows.Window
	// RestoredDicts seeds streams with dictionary state recovered from a
	// checkpoint, keyed by source label: a stream whose source matches an
	// entry adopts its tables instead of waiting for a hello frame, so a
	// recorded feed's tail can resume mid-stream after a daemon restart.
	// Each entry is consumed by the first matching stream. Window mode
	// only.
	RestoredDicts map[string]*DictState
}

// DictState is one stream's dictionary-mode decode state, detached from
// the stream so a service can checkpoint it at shutdown and hand it
// back via Config.RestoredDicts after a restart. Tables must be bound
// to the same Window the restored collector will feed
// (flows.RestoreWireTables against that Window).
type DictState struct {
	// Source is the stream's source label (Config.RestoredDicts key).
	Source string
	// Epoch is the exporter's hour-zero (Unix seconds) from the hello
	// frame that armed the tables.
	Epoch int64
	// Rate is the stream's advertised sampling rate (0 = none seen).
	Rate uint32
	// Tables is the stream's dictionary state.
	Tables *flows.WireTables
	// LineV4/BackV4 mirror the dictionary entries' address families.
	LineV4, BackV4 []bool
}

// Stats counts what crossed the wire. All counters are totals across
// streams, and they move while streams are open: each stream publishes
// its counters once per frame, datagram or IPFIX message. They are the
// decoder's, so an open stream's counters may lead what its fold has
// put into the sink by the rows its fold ring holds: the chunk being
// folded, one queued and the one being filled, each a few thousand
// rows (see fold.go). Once the stream has ended they match the sink.
type Stats struct {
	// Streams completed ingestion (including failed ones); an open
	// stream counts 0 here until it ends.
	Streams uint64
	// Frames, V4Records, V6Records, Flushes mirror the exporter's
	// WireStats for cross-checking; V5Packets counts v5 datagrams.
	Frames    uint64
	V5Packets uint64
	V4Records uint64
	V6Records uint64
	Flushes   uint64
	// BatchFrames/BatchRecords/DictEntries are the dictionary-mode
	// mirrors of the exporter's columnar counters: batch frames decoded,
	// rows they carried, and dictionary addresses learned.
	BatchFrames  uint64
	BatchRecords uint64
	DictEntries  uint64
	// TemplatePackets/TemplateRecords count NetFlow v9/IPFIX messages
	// (IngestIPFIX, UDP) and the flow records they decoded to.
	TemplatePackets uint64
	TemplateRecords uint64
	// SaturatedCounters counts decoded Bytes/Packets fields at v5's
	// 32-bit ceiling — the collector-visible trace of clamp32 saturation
	// on the export side (the true value is unrecoverable; non-zero
	// means volume estimates are floors).
	SaturatedCounters uint64
	// RateMismatches counts v5 headers advertising a different sampling
	// rate than the stream's first header (the first one wins).
	RateMismatches uint64
	// BadPackets counts datagrams dropped in tolerant (UDP) mode.
	BadPackets uint64
	// ScaledBytes is the total estimated byte volume after the sampling
	// rate was restored.
	ScaledBytes uint64
	// DroppedFrames counts frames discarded under DropFrame: payloads
	// that failed decoding, and truncated stream tails.
	DroppedFrames uint64
	// ResyncEvents counts forward scans to the next "NF" magic after a
	// corrupt frame envelope.
	ResyncEvents uint64
	// StallTimeouts counts streams aborted by the read-stall watchdog.
	StallTimeouts uint64
	// Reconnects counts successful redials by IngestReconnecting.
	Reconnects uint64
	// QuarantinedStreams counts streams whose entire contribution was
	// discarded under QuarantineStream.
	QuarantinedStreams uint64
}

func (s *Stats) add(o Stats) {
	s.Streams += o.Streams
	s.Frames += o.Frames
	s.V5Packets += o.V5Packets
	s.V4Records += o.V4Records
	s.V6Records += o.V6Records
	s.Flushes += o.Flushes
	s.BatchFrames += o.BatchFrames
	s.BatchRecords += o.BatchRecords
	s.DictEntries += o.DictEntries
	s.TemplatePackets += o.TemplatePackets
	s.TemplateRecords += o.TemplateRecords
	s.SaturatedCounters += o.SaturatedCounters
	s.RateMismatches += o.RateMismatches
	s.BadPackets += o.BadPackets
	s.ScaledBytes += o.ScaledBytes
	s.DroppedFrames += o.DroppedFrames
	s.ResyncEvents += o.ResyncEvents
	s.StallTimeouts += o.StallTimeouts
	s.Reconnects += o.Reconnects
	s.QuarantinedStreams += o.QuarantinedStreams
}

// StreamStat is one stream's counters with its attribution — enough to
// point at the source feeding a corrupt or mis-rated stream instead of
// only knowing "somewhere in the sum". Streams is 0 while the stream
// is open and 1 once it has ended.
type StreamStat struct {
	// Stream is the stream's index: its position in a batch entry
	// point's order (IngestPipes' writers, IngestFiles' paths), or
	// accept order for streams that arrive one at a time (TCP conns,
	// UDP sources).
	Stream int
	// Vantage is the feed's vantage label (Config.Opts.Vantage).
	Vantage string
	// Source describes the transport endpoint: a TCP remote address, a
	// UDP source address, a file path, or "pipe-N"/"stream-N" for
	// anonymous readers.
	Source string
	// HoursCovered/HoursTotal are the stream's feed-liveness window:
	// study hours with at least one decoded record. A healthy stream
	// covers (its share of) the week; one that died Wednesday doesn't.
	HoursCovered int
	HoursTotal   int
	// HourBits is the covered-hours bitset itself (bit h set: study
	// hour h saw records), so cross-stream coverage algebra — which
	// hours did THIS feed miss that a sibling covered — doesn't have to
	// re-derive it from counts. Its top set bit is the newest hour the
	// stream has seen.
	HourBits []uint64
	Stats
}

// Collector ingests N concurrent NetFlow streams into one merged
// traffic study. Safe for concurrent IngestNamedStream calls; Finalize once
// ingestion is done.
type Collector struct {
	cfg Config
	// partialOpts is cfg.Opts with SamplingRate forced to 1: the wire
	// path scales counters back to estimates at the stream boundary, so
	// the analysis must not scale again. Estimates
	// are integer-valued either way, so wire and in-memory aggregation
	// agree bit for bit.
	partialOpts flows.Options

	mu    sync.Mutex
	parts []*flows.ShardPartial
	// streams holds every stream by index from its creation on; Stats
	// and StreamStats read their published counters.
	streams    []*stream
	nextStream int
	// restored holds Config.RestoredDicts entries not yet claimed by a
	// stream; dicts retains completed streams' dictionary state for
	// checkpointing (window mode only).
	restored map[string]*DictState
	dicts    map[string]*DictState
	// newFolder starts each stream's fold: newPipe, or a serial
	// folder a test substitutes as its oracle.
	newFolder func() folder
}

// New builds a collector.
func New(cfg Config) (*Collector, error) {
	if cfg.Index == nil {
		return nil, errors.New("collector: Config.Index is required")
	}
	if len(cfg.Days) == 0 {
		return nil, errors.New("collector: Config.Days is required")
	}
	if cfg.Window != nil {
		if cfg.Policy == QuarantineStream {
			return nil, errors.New("collector: QuarantineStream is incompatible with window mode (streams share one sink)")
		}
		if !cfg.Window.Epoch().Equal(cfg.Days[0]) {
			return nil, fmt.Errorf("collector: Window epoch %v != Days[0] %v", cfg.Window.Epoch(), cfg.Days[0])
		}
		if cfg.Window.SamplingRate() != 1 {
			return nil, fmt.Errorf("collector: Window sampling rate %v != 1 (the wire path pre-scales counters)", cfg.Window.SamplingRate())
		}
	} else if len(cfg.RestoredDicts) != 0 {
		return nil, errors.New("collector: RestoredDicts requires window mode")
	}
	// Freeze the dense backend/alias ID assignment now, while New is
	// still single-threaded: every accepted stream builds its shard
	// partial concurrently, and they must all see one built index.
	cfg.Index.Build()
	po := cfg.Opts
	po.SamplingRate = 1
	restored := make(map[string]*DictState, len(cfg.RestoredDicts))
	for src, ds := range cfg.RestoredDicts {
		restored[src] = ds
	}
	return &Collector{cfg: cfg, partialOpts: po, restored: restored, dicts: map[string]*DictState{}, newFolder: newPipe}, nil
}

// stream is one shard's decode state.
type stream struct {
	// sink is where flushes fold: the stream's own ShardPartial (batch
	// mode, also held in part for quarantine swaps) or the collector's
	// shared Window.
	sink flows.Sink
	part *flows.ShardPartial
	// folder makes the fold calls the decoder closes into cur,
	// the chunk being filled; rowsFrom is where the open flush interval
	// starts in cur.rows.
	folder   folder
	cur      *chunk
	rowsFrom int
	// index is the stream's reserved index (see reserveStreams); source
	// its endpoint label.
	index  int
	source string
	// rate is the stream's advertised sampling rate (0 = none seen yet).
	rate  uint32
	stats Stats
	// fallback is the configured rate (Config.Opts.SamplingRate) a flush
	// applies to record rows when no v5 header has advertised one.
	fallback uint32
	// Per-stream feed-liveness: start anchors the study clock, hourBits
	// marks study hours with at least one decoded record.
	start    time.Time
	hours    int
	hourBits []uint64
	// stalled is set by the read-stall watchdog just before it aborts
	// the raw reader.
	stalled atomic.Bool
	// mu guards pub and pubBits: stats and hourBits as of the stream's
	// last publish, which is what Stats and StreamStats read.
	mu      sync.Mutex
	pub     Stats
	pubBits []uint64

	// Dictionary-mode state, armed by the stream's hello frame: the
	// exporter's hour epoch, the dictionary tables bound to this
	// stream's sink, and the per-entry address families (for the V4/V6
	// record counters). The flush interval's rows accumulate in
	// cur.rows.
	epoch  int64
	tables *flows.WireTables
	lineV4 []bool
	backV4 []bool
	// Record-decoder state (v5, v9/IPFIX): each decoded packet's
	// records resolve through recTables (made on the first one) into
	// cur.rows, the flush interval's pending rows — still sampled
	// counters, because the rate is only fixed at flush. Only framed
	// streams carry dictionary frames and only datagram and IPFIX
	// sources carry records, so a stream fills one of the two. pending and
	// pendingBytes count every decoded record since the last flush,
	// rows or not, for Stats.ScaledBytes.
	recTables    *flows.WireTables
	pending      int
	pendingBytes uint64
	// scratch/dictAddrs are decode buffers reused across frames and
	// datagrams.
	scratch   []netflow.Record
	dictAddrs []netip.Addr
	// templ caches NetFlow v9/IPFIX templates for this stream's
	// messages; created on first use.
	templ *netflow.TemplateCache
}

// reserveStreams claims n consecutive stream indices and returns the
// first. Multi-stream entry points reserve their whole batch before
// spawning ingest goroutines and bind reader i to stream base+i, so a
// stream's index — which keys its fault tap, its shard partial slot,
// and its StreamStats row — is the caller's slice position, not the
// scheduler-dependent order the goroutines happened to start in.
func (c *Collector) reserveStreams(n int) int {
	c.mu.Lock()
	base := c.nextStream
	c.nextStream += n
	for len(c.parts) < c.nextStream {
		c.parts = append(c.parts, nil)
	}
	for len(c.streams) < c.nextStream {
		c.streams = append(c.streams, nil)
	}
	c.mu.Unlock()
	return base
}

func (c *Collector) newStream(source string) *stream {
	return c.newStreamAt(c.reserveStreams(1), source)
}

// newStreamAt creates the stream at a reserved index and registers it,
// so its (still zero) counters are visible from the start.
func (c *Collector) newStreamAt(idx int, source string) *stream {
	if source == "" {
		source = fmt.Sprintf("stream-%d", idx)
	}
	hours := len(c.cfg.Days) * 24
	st := &stream{
		index: idx, source: source,
		fallback: c.cfg.Opts.SamplingRate,
		start:    c.cfg.Days[0], hours: hours,
		hourBits: make([]uint64, (hours+63)/64),
		pubBits:  make([]uint64, (hours+63)/64),
		folder:   c.newFolder(),
		cur:      new(chunk),
	}
	if c.cfg.Window != nil {
		st.sink = c.cfg.Window
	} else {
		st.part = flows.NewShardPartial(c.cfg.Index, c.cfg.Days, c.partialOpts)
		st.sink = st.part
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.streams[idx] = st
	if st.part != nil {
		c.parts[idx] = st.part
	}
	// Resume a checkpointed feed's dictionary state (window mode only)
	// so its tail decodes without waiting for a hello frame it will
	// never see. The stream adopts a copy: a checkpoint may still be
	// encoding the entry an earlier DictStates call returned, so the
	// entry is never written again.
	if ds, ok := c.restored[source]; ok {
		delete(c.restored, source)
		st.tables = ds.Tables.Clone()
		st.epoch = ds.Epoch
		st.rate = ds.Rate
		st.lineV4 = slices.Clone(ds.LineV4)
		st.backV4 = slices.Clone(ds.BackV4)
	}
	return st
}

// publish makes the stream's counters and covered hours visible to
// Stats and StreamStats. Decode loops call it once per frame, datagram
// or message, never per row, and before draining a feed they gave up
// on.
func (st *stream) publish() {
	st.mu.Lock()
	st.pub = st.stats
	copy(st.pubBits, st.hourBits)
	st.mu.Unlock()
}

// stat is the stream's StreamStats row as of its last publish.
func (st *stream) stat(vantage string) StreamStat {
	st.mu.Lock()
	defer st.mu.Unlock()
	covered := 0
	for _, w := range st.pubBits {
		covered += bits.OnesCount64(w)
	}
	return StreamStat{
		Stream:       st.index,
		Vantage:      vantage,
		Source:       st.source,
		HoursCovered: covered,
		HoursTotal:   st.hours,
		HourBits:     append([]uint64(nil), st.pubBits...),
		Stats:        st.pub,
	}
}

// finish folds what the stream closed, stops its fold, marks it ended
// and publishes its final counters.
func (c *Collector) finish(st *stream) {
	st.join()
	st.folder.close()
	// Ended streams stay registered for StreamStats; their chunk
	// buffers need not.
	st.folder, st.cur = nil, nil
	if c.cfg.Window != nil && st.tables != nil {
		// Retain the completed stream's dictionary state so a checkpoint
		// can persist it and its tail can resume after a restart.
		c.mu.Lock()
		c.dicts[st.source] = &DictState{
			Source: st.source, Epoch: st.epoch, Rate: st.rate,
			Tables: st.tables, LineV4: st.lineV4, BackV4: st.backV4,
		}
		c.mu.Unlock()
	}
	st.stats.Streams = 1
	st.publish()
}

// Finalize merges every stream's partial into the study aggregates —
// call after all ingestion has completed. With zero streams it returns
// empty aggregates. The merge consumes the partials; repeated calls
// return the cached result. In window mode it returns the trailing
// window's fold as Window.Merged lends it — finalized and read-only,
// never changed by later ingest (the window copies it on write), and
// callable while ingestion continues.
func (c *Collector) Finalize() (*flows.ContactCounter, *flows.Collector) {
	if c.cfg.Window != nil {
		return c.cfg.Window.Merged()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.parts) == 0 {
		c.parts = append(c.parts, flows.NewShardPartial(c.cfg.Index, c.cfg.Days, c.partialOpts))
	}
	if len(c.parts) > 1 {
		cc, col := flows.MergePartials(c.parts)
		c.parts = c.parts[:1] // merged into parts[0]; cache
		return cc, col
	}
	return flows.MergePartials(c.parts)
}

// Partials hands over the per-stream shard partials — each carrying its
// vantage tag (Config.Opts.Vantage) — for a cross-collector
// flows.FederatedMerge, instead of finalizing in place. The caller
// assumes ownership: the collector is left empty, and a later Finalize
// returns empty aggregates. Call only after all ingestion completed.
func (c *Collector) Partials() []*flows.ShardPartial {
	if c.cfg.Window != nil {
		return nil // window mode has no per-stream partials to hand over
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	parts := c.parts
	c.parts = nil
	return parts
}

// DictStates returns the dictionary state retained from completed
// streams (window mode), keyed by source label — what a service
// checkpoints so recorded feeds can resume mid-stream after a restart.
// Unclaimed RestoredDicts entries are included, so state survives a
// restart even if the matching feed never reattached. The returned map
// is a copy, and no DictState in it is written afterwards: completed
// streams' state is final, and a stream that claims a restored entry
// adopts a copy of it. Safe to encode while streams ingest.
func (c *Collector) DictStates() map[string]*DictState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*DictState, len(c.dicts)+len(c.restored))
	for src, ds := range c.restored {
		out[src] = ds
	}
	for src, ds := range c.dicts {
		out[src] = ds
	}
	return out
}

// Stats returns the wire counters summed over every stream, open or
// ended, as each last published them.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s Stats
	for _, st := range c.streams {
		if st != nil {
			st.mu.Lock()
			s.add(st.pub)
			st.mu.Unlock()
		}
	}
	return s
}

// StreamStats returns the per-stream breakdown ordered by stream index,
// open streams included, so anomalies in the totals (bad packets, rate
// mismatches, saturated counters) can be attributed to the feed that
// produced them while it runs.
func (c *Collector) StreamStats() []StreamStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []StreamStat
	for _, st := range c.streams {
		if st != nil {
			out = append(out, st.stat(c.cfg.Opts.Vantage))
		}
	}
	return out
}
