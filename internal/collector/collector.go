// Package collector is the wire half of the ISP ingestion path: it
// consumes the dictionary streams exported by isp.SimulateLinesToWire
// (or foreign v5/v9/IPFIX feeds, framed or as UDP datagrams), decodes
// and validates every packet, restores the sampling scale each stream
// advertises (sampled counters × rate — the paper's "estimate the
// exchanged traffic considering the sampling rate", Section 5.6), and
// folds each stream into its own worker-local flows.ShardPartial.
// Partials merge order-independently, so a 1-, 4-, or 8-stream ingest
// of the same feed produces byte-identical figures — the wire is a
// transparent seam in the simulate→aggregate pipeline.
//
// Stream model: one io.Reader (or one TCP connection, or one UDP source
// address) is one shard. The exporter guarantees any subscriber line's
// records stay within one stream; flush frames mark line-batch
// boundaries so scanner classification stays incremental. Streams
// without flush markers are still correct — EOF acts as one final flush
// over every pending row, trading memory for protocol simplicity.
package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"net/netip"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iotmap/internal/core/flows"
	"iotmap/internal/netflow"
	"iotmap/internal/simrand"
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

// errStallTimeout marks a stream aborted by the read-stall watchdog.
var errStallTimeout = errors.New("collector: read stall timeout")

// Config sizes a collector.
type Config struct {
	// Index classifies flow endpoints (required).
	Index *flows.BackendIndex
	// Days is the study period (required).
	Days []time.Time
	// Opts configures the analysis exactly like the in-memory pipeline's
	// NewShardedAggregator. Opts.SamplingRate is the *fallback* scale,
	// applied to any line batch flushed before the stream's first v5
	// header (e.g. an IPv6-only prefix, or a wholly v6 stream); once a
	// header advertises a rate it wins for the rest of the stream, and a
	// disagreement with an already-applied fallback is counted in
	// Stats.RateMismatches.
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
// streams; read them via Stats() after ingestion completes.
type Stats struct {
	// Streams completed ingestion (including failed ones).
	Streams uint64
	// Frames, V4Records, V6Records, Flushes mirror the exporter's
	// WireStats for cross-checking; V5Packets counts foreign v5 packets.
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
	// TemplatePackets/TemplateRecords count embedded NetFlow v9/IPFIX
	// datagrams (FrameTempl, IngestIPFIX, UDP) and the flow records they
	// decoded to.
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

// StreamStat is one completed stream's counters with its attribution —
// enough to point at the source feeding a corrupt or mis-rated stream
// instead of only knowing "somewhere in the sum".
type StreamStat struct {
	// Stream is the stream's index: the reader's position in the slice
	// handed to a batch entry point (IngestStreams, IngestPipes), or
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
	// re-derive it from counts.
	HourBits []uint64
	Stats
}

// Collector ingests N concurrent NetFlow streams into one merged
// traffic study. Safe for concurrent IngestStream calls; Finalize once
// ingestion is done.
type Collector struct {
	cfg Config
	// partialOpts is cfg.Opts with SamplingRate forced to 1: the wire
	// path scales counters back to estimates at the stream boundary, so
	// the analysis must not scale again. Estimates
	// are integer-valued either way, so wire and in-memory aggregation
	// agree bit for bit.
	partialOpts flows.Options

	mu         sync.Mutex
	parts      []*flows.ShardPartial
	stats      Stats
	perStream  []StreamStat
	nextStream int
	// restored holds Config.RestoredDicts entries not yet claimed by a
	// stream; dicts retains completed streams' dictionary state for
	// checkpointing (window mode only).
	restored map[string]*DictState
	dicts    map[string]*DictState
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
	return &Collector{cfg: cfg, partialOpts: po, restored: restored, dicts: map[string]*DictState{}}, nil
}

// stream is one shard's decode state.
type stream struct {
	// sink is where flushes fold: the stream's own ShardPartial (batch
	// mode, also held in part for quarantine swaps) or the collector's
	// shared Window.
	sink flows.Sink
	part *flows.ShardPartial
	// index is the stream's reserved index (see reserveStreams); source
	// its endpoint label.
	index  int
	source string
	// rate is the stream's advertised sampling rate (0 = none seen yet).
	rate  uint32
	stats Stats
	// live marks a ServeUDP stream, whose datagram counters already
	// folded into the collector totals as they arrived; finish must not
	// add them twice.
	live bool
	// fallbackUsed is the configured rate a flush actually applied
	// before any v5 header had advertised one; a later header that
	// disagrees is a rate mismatch worth counting.
	fallbackUsed uint32
	// Per-stream feed-liveness: start anchors the study clock, hourBits
	// marks study hours with at least one decoded record.
	start    time.Time
	hours    int
	hourBits []uint64
	// stalled is set by the read-stall watchdog just before it aborts
	// the raw reader.
	stalled atomic.Bool

	// Dictionary-mode state, armed by the stream's hello frame: the
	// exporter's hour epoch, the dictionary tables bound to this
	// stream's partial, the reused column batch the flush interval's
	// rows accumulate in, and the per-entry address families (for the
	// V4/V6 record counters).
	epoch  int64
	tables *flows.WireTables
	batch  netflow.RecordBatch
	lineV4 []bool
	backV4 []bool
	// Record-decoder state (v5, v6, v9/IPFIX): each decoded packet's
	// records resolve through recTables (made on the first one) into
	// recBatch, the flush interval's pending rows — still sampled
	// counters, because the rate is only fixed at flush. pending and
	// pendingBytes count every decoded record since the last flush,
	// rows or not, for the fallback-rate rule and Stats.ScaledBytes.
	recTables    *flows.WireTables
	recBatch     netflow.RecordBatch
	pending      int
	pendingBytes uint64
	// scratch/dictAddrs are decode buffers reused across frames and
	// datagrams.
	scratch   []netflow.Record
	dictAddrs []netip.Addr
	// templ caches NetFlow v9/IPFIX templates for this stream's
	// embedded foreign datagrams; created on first use.
	templ *netflow.TemplateCache
}

// resetDict (re)initializes the dictionary state on a hello frame. A
// reconnected or restarted exporter re-sends hello and rebuilds its
// dictionaries from ID zero, so arriving mid-stream is self-healing.
func (st *stream) resetDict(epoch int64) {
	st.epoch = epoch
	st.tables = st.sink.NewWireTables()
	st.batch.Reset()
	st.lineV4 = st.lineV4[:0]
	st.backV4 = st.backV4[:0]
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
	c.mu.Unlock()
	return base
}

func (c *Collector) newStream(source string) *stream {
	return c.newStreamAt(c.reserveStreams(1), source)
}

func (c *Collector) newStreamAt(idx int, source string) *stream {
	if source == "" {
		source = fmt.Sprintf("stream-%d", idx)
	}
	hours := len(c.cfg.Days) * 24
	st := &stream{
		index: idx, source: source,
		start: c.cfg.Days[0], hours: hours,
		hourBits: make([]uint64, (hours+63)/64),
	}
	if c.cfg.Window != nil {
		st.sink = c.cfg.Window
		// Resume a checkpointed feed's dictionary state so its tail
		// decodes without waiting for a hello frame it will never see.
		c.mu.Lock()
		if ds, ok := c.restored[source]; ok {
			delete(c.restored, source)
			st.tables = ds.Tables
			st.epoch = ds.Epoch
			st.rate = ds.Rate
			st.lineV4 = ds.LineV4
			st.backV4 = ds.BackV4
		}
		c.mu.Unlock()
		return st
	}
	part := flows.NewShardPartial(c.cfg.Index, c.cfg.Days, c.partialOpts)
	c.mu.Lock()
	c.parts[idx] = part
	c.mu.Unlock()
	st.part = part
	st.sink = part
	return st
}

// cover marks the study hours the records fall into.
func (st *stream) cover(recs []netflow.Record) {
	for _, r := range recs {
		since := r.Start.Sub(st.start)
		if since < 0 {
			continue
		}
		hour := int(since / time.Hour)
		if hour >= st.hours {
			continue
		}
		st.hourBits[hour>>6] |= 1 << (hour & 63)
	}
}

// finish folds the stream's stats into the collector totals and records
// the per-stream breakdown.
func (c *Collector) finish(st *stream) {
	st.stats.Streams = 1
	covered := 0
	for _, w := range st.hourBits {
		covered += bits.OnesCount64(w)
	}
	c.mu.Lock()
	if st.live {
		// ServeUDP already folded the datagram counters in on arrival;
		// only the close-time counters remain.
		c.stats.Streams++
		c.stats.RateMismatches += st.stats.RateMismatches
		c.stats.ScaledBytes += st.stats.ScaledBytes
		c.stats.QuarantinedStreams += st.stats.QuarantinedStreams
	} else {
		c.stats.add(st.stats)
	}
	if c.cfg.Window != nil && st.tables != nil {
		// Retain the completed stream's dictionary state so a checkpoint
		// can persist it and its tail can resume after a restart.
		c.dicts[st.source] = &DictState{
			Source: st.source, Epoch: st.epoch, Rate: st.rate,
			Tables: st.tables, LineV4: st.lineV4, BackV4: st.backV4,
		}
	}
	c.perStream = append(c.perStream, StreamStat{
		Stream:       st.index,
		Vantage:      c.cfg.Opts.Vantage,
		Source:       st.source,
		HoursCovered: covered,
		HoursTotal:   st.hours,
		HourBits:     append([]uint64(nil), st.hourBits...),
		Stats:        st.stats,
	})
	c.mu.Unlock()
}

// observeRate adopts the first header-advertised rate and counts
// disagreements afterwards — including with a fallback rate an earlier
// header-less flush already applied.
func (st *stream) observeRate(rate uint32) {
	if st.rate == 0 {
		st.rate = rate
		if st.fallbackUsed != 0 && st.fallbackUsed != rate {
			st.stats.RateMismatches++
		}
		return
	}
	if st.rate != rate {
		st.stats.RateMismatches++
	}
}

// ingestV5 counts and resolves one decoded v5 packet's records.
func (st *stream) ingestV5(h netflow.V5Header, recs []netflow.Record) {
	st.observeRate(h.SamplingRate())
	st.stats.V5Packets++
	st.stats.V4Records += uint64(len(recs))
	for _, r := range recs {
		if r.Bytes == 0xFFFFFFFF {
			st.stats.SaturatedCounters++
		}
		if r.Packets == 0xFFFFFFFF {
			st.stats.SaturatedCounters++
		}
	}
	st.addRecords(recs)
}

// addRecords resolves one decoded packet's records into the flush
// interval's pending rows.
func (st *stream) addRecords(recs []netflow.Record) {
	if st.recTables == nil {
		st.recTables = st.sink.NewWireTables()
	}
	st.pending += len(recs)
	for _, r := range recs {
		st.pendingBytes += r.Bytes
		st.recTables.AppendRecord(&st.recBatch, r)
	}
}

// flush completes the pending flush interval in the stream's sink (the
// scanner-classification point). Dictionary rows were rebased and
// scaled at decode; record rows are scaled here, by the header rate or,
// before any v5 header, the fallback.
func (st *stream) flush(fallbackRate uint32) {
	if st.batch.Len() > 0 {
		st.sink.IngestBatch(st.tables, &st.batch)
		st.batch.Reset()
	}
	if st.pending == 0 {
		return
	}
	rate := uint64(st.rate)
	if rate == 0 {
		rate = uint64(max(fallbackRate, 1))
		st.fallbackUsed = uint32(rate)
	}
	if rate > 1 {
		for i := range st.recBatch.Bytes {
			st.recBatch.Bytes[i] *= rate
			st.recBatch.Packets[i] *= rate
		}
	}
	st.stats.ScaledBytes += st.pendingBytes * rate
	st.sink.IngestBatch(st.recTables, &st.recBatch)
	st.recBatch.Reset()
	st.pending, st.pendingBytes = 0, 0
}

// IngestStream consumes one framed NetFlow stream (the
// isp.SimulateLinesToWire format) until EOF. It may be called from N
// goroutines, one per stream; each call owns its own shard partial.
// Under the default Abort policy, framing and decode errors are fatal
// for the stream — a corrupt feed fails loudly rather than aggregating
// a partial week silently (everything ingested up to the error stays
// counted); DropFrame and QuarantineStream degrade gracefully instead.
func (c *Collector) IngestStream(r io.Reader) error {
	return c.IngestNamedStream("", r)
}

// IngestNamedStream is IngestStream with a source label for the
// per-stream Stats breakdown (a file path, a peer address — whatever
// identifies the feed to an operator). An empty name falls back to the
// accept-order "stream-N" label.
func (c *Collector) IngestNamedStream(name string, r io.Reader) error {
	return c.ingestIndexed(c.reserveStreams(1), name, r)
}

// ingestIndexed runs one stream's full ingest under a pre-reserved
// stream index.
func (c *Collector) ingestIndexed(idx int, name string, r io.Reader) error {
	st := c.newStreamAt(idx, name)
	defer c.finish(st)
	raw := r
	if c.cfg.Tap != nil {
		r = c.cfg.Tap(st.index, st.source, r)
	}
	if c.cfg.StallTimeout > 0 {
		pr := &progressReader{r: r}
		r = pr
		stop := make(chan struct{})
		defer close(stop)
		go watchStall(pr, raw, st, c.cfg.StallTimeout, stop)
	}
	return c.ingest(st, raw, r)
}

// ingest is the framed-stream decode loop over an io.Reader transport.
// raw is the transport-level reader (what abort/drain must act on); r
// is the possibly tapped and watchdogged view the frames are decoded
// from.
func (c *Collector) ingest(st *stream, raw io.Reader, r io.Reader) error {
	return c.ingestFrames(st, raw, netflow.NewFrameReader(r))
}

// frameSource is a stream of frames with resynchronization — the
// abstraction ingestFrames decodes from, satisfied by both the
// io.Reader-backed netflow.FrameReader and the zero-copy
// netflow.BytesFrameReader over a mapped file.
type frameSource interface {
	Next() (netflow.Frame, error)
	Resync() (int64, error)
}

// payloadFault applies the fault policy to an intact-envelope payload
// error. The bool reports whether the decode loop should continue
// (DropFrame: the reader is still frame-aligned, drop just this frame);
// false means the stream ends with the returned error (nil under
// quarantine).
func (c *Collector) payloadFault(st *stream, raw io.Reader, derr error) (bool, error) {
	switch c.cfg.Policy {
	case DropFrame:
		st.stats.DroppedFrames++
		return true, nil
	case QuarantineStream:
		return false, c.quarantine(st, raw)
	default:
		return false, derr
	}
}

// ingestFrames is the decode loop shared by every framed transport.
func (c *Collector) ingestFrames(st *stream, raw io.Reader, fr frameSource) error {
	fallback := c.cfg.Opts.SamplingRate
	for {
		f, err := fr.Next()
		if err == io.EOF {
			st.flush(fallback) // implicit final flush
			return nil
		}
		if err != nil {
			if st.stalled.Load() {
				st.stats.StallTimeouts++
			}
			switch c.cfg.Policy {
			case QuarantineStream:
				return c.quarantine(st, raw)
			case DropFrame:
				switch {
				case netflow.IsCorruptFrame(err):
					// Bad envelope: scan forward to the next plausible
					// frame boundary and resume.
					st.stats.ResyncEvents++
					if _, rerr := fr.Resync(); rerr != nil {
						st.flush(fallback)
						if rerr != io.EOF {
							drainReader(raw)
						}
						return nil
					}
					continue
				case netflow.IsTruncation(err):
					// Feed ended mid-frame: drop the tail, keep the week
					// ingested so far.
					st.stats.DroppedFrames++
					st.flush(fallback)
					return nil
				default:
					// Dead transport (disconnect, stall abort): end the
					// stream early with its contribution intact, and
					// drain the raw reader so a still-live exporter
					// behind a pipe is not deadlocked.
					st.flush(fallback)
					drainReader(raw)
					return nil
				}
			default:
				return err
			}
		}
		st.stats.Frames++
		switch f.Type {
		case netflow.FrameV5:
			h, recs, derr := netflow.DecodeV5StrictInto(f.Payload, st.scratch[:0])
			if derr != nil {
				cont, err := c.payloadFault(st, raw, derr)
				if !cont {
					return err
				}
				continue
			}
			st.scratch = recs
			st.cover(recs)
			st.ingestV5(h, recs)
		case netflow.FrameV6:
			recs, derr := netflow.DecodeV6PayloadInto(f.Payload, st.scratch[:0])
			if derr != nil {
				cont, err := c.payloadFault(st, raw, derr)
				if !cont {
					return err
				}
				continue
			}
			st.scratch = recs
			st.stats.V6Records += uint64(len(recs))
			st.cover(recs)
			st.addRecords(recs)
		case netflow.FrameHello:
			rate, epoch, derr := netflow.DecodeHelloPayload(f.Payload)
			if derr != nil {
				cont, err := c.payloadFault(st, raw, derr)
				if !cont {
					return err
				}
				continue
			}
			st.observeRate(rate)
			st.resetDict(epoch)
		case netflow.FrameLineDict, netflow.FrameBackendDict:
			if derr := st.dictFrame(f); derr != nil {
				cont, err := c.payloadFault(st, raw, derr)
				if !cont {
					return err
				}
				continue
			}
		case netflow.FrameBatch:
			if derr := st.batchFrame(f); derr != nil {
				cont, err := c.payloadFault(st, raw, derr)
				if !cont {
					return err
				}
				continue
			}
		case netflow.FrameTempl:
			if st.templ == nil {
				st.templ = netflow.NewTemplateCache()
			}
			recs, derr := st.templ.Decode(f.Payload, st.scratch[:0])
			if derr != nil {
				cont, err := c.payloadFault(st, raw, derr)
				if !cont {
					return err
				}
				continue
			}
			st.scratch = recs
			st.ingestTemplated(recs)
		case netflow.FrameFlush:
			st.stats.Flushes++
			st.flush(fallback)
		}
	}
}

// dictFrame applies one dictionary-delta frame to the stream's tables.
func (st *stream) dictFrame(f netflow.Frame) error {
	if st.tables == nil {
		return fmt.Errorf("%w: dictionary frame before hello", netflow.ErrBadPayload)
	}
	base, addrs, err := netflow.DecodeDictPayload(f.Payload, st.dictAddrs[:0])
	if err != nil {
		return err
	}
	st.dictAddrs = addrs
	if f.Type == netflow.FrameLineDict {
		if err := st.tables.AddLines(base, addrs); err != nil {
			return fmt.Errorf("%w: %v", netflow.ErrBadPayload, err)
		}
		st.lineV4 = syncFams(st.lineV4, int(base), addrs)
	} else {
		if err := st.tables.AddBackends(base, addrs); err != nil {
			return fmt.Errorf("%w: %v", netflow.ErrBadPayload, err)
		}
		st.backV4 = syncFams(st.backV4, int(base), addrs)
	}
	st.stats.DictEntries += uint64(len(addrs))
	return nil
}

// syncFams mirrors new dictionary entries' address families (true =
// IPv4) at their IDs, gap-filling dropped ranges.
func syncFams(fams []bool, base int, addrs []netip.Addr) []bool {
	for len(fams) < base {
		fams = append(fams, false)
	}
	for _, a := range addrs {
		fams = append(fams, a.Is4() || a.Is4In6())
	}
	return fams
}

// batchFrame decodes one columnar batch frame into the stream's reused
// RecordBatch and normalizes the rows in place: the hour column rebases
// from the exporter's epoch to study hours (negative = outside the
// study window), counters scale back to estimates, and the wire/
// liveness counters fold as the rows stream past. The actual analysis
// fold (IngestBatch) happens at the flush boundary.
func (st *stream) batchFrame(f netflow.Frame) error {
	if st.tables == nil {
		return fmt.Errorf("%w: batch frame before hello", netflow.ErrBadPayload)
	}
	from := st.batch.Len()
	if err := netflow.DecodeBatchPayload(f.Payload, &st.batch); err != nil {
		return err
	}
	if err := st.tables.Validate(&st.batch, from); err != nil {
		st.batch.Truncate(from)
		return fmt.Errorf("%w: %v", netflow.ErrBadPayload, err)
	}
	n := st.batch.Len() - from
	rate := uint64(st.rate)
	if rate == 0 {
		rate = 1
	}
	offSec := st.epoch - st.start.Unix()
	aligned := offSec%3600 == 0
	hourOff := offSec / 3600
	for i := from; i < st.batch.Len(); i++ {
		var sh int64
		if aligned {
			sh = hourOff + int64(st.batch.Hour[i])
		} else {
			sh = floorDiv(offSec+int64(st.batch.Hour[i])*3600, 3600)
		}
		switch {
		case sh < 0:
			st.batch.Hour[i] = -1
		case sh >= int64(st.hours):
			// Past the study window: keep the (positive) hour so
			// IngestBatch's range check drops the row, like the record
			// path's hour rejection.
			st.batch.Hour[i] = int32(min(sh, int64(1<<31-1)))
		default:
			st.batch.Hour[i] = int32(sh)
			st.hourBits[sh>>6] |= 1 << (sh & 63)
		}
		if rate > 1 {
			st.batch.Bytes[i] *= rate
			st.batch.Packets[i] *= rate
		}
		st.stats.ScaledBytes += st.batch.Bytes[i]
		if st.lineV4[st.batch.Line[i]] && st.backV4[st.batch.Backend[i]] {
			st.stats.V4Records++
		} else {
			st.stats.V6Records++
		}
	}
	st.stats.BatchFrames++
	st.stats.BatchRecords += uint64(n)
	return nil
}

// floorDiv is integer division rounding toward negative infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ingestTemplated counts and resolves one decoded v9/IPFIX datagram's
// records.
func (st *stream) ingestTemplated(recs []netflow.Record) {
	st.stats.TemplatePackets++
	st.stats.TemplateRecords += uint64(len(recs))
	for _, r := range recs {
		if r.IsV4() {
			st.stats.V4Records++
		} else {
			st.stats.V6Records++
		}
	}
	st.cover(recs)
	st.addRecords(recs)
}

// quarantine discards the stream's entire analysis contribution —
// its shard partial is replaced with a fresh empty one — while keeping
// the wire counters for diagnosis, then drains the feed so the exporter
// behind it completes normally.
func (c *Collector) quarantine(st *stream, raw io.Reader) error {
	st.stats.QuarantinedStreams = 1
	st.batch.Reset()
	st.tables = nil
	st.recBatch.Reset()
	st.recTables = nil
	st.pending, st.pendingBytes = 0, 0
	for i := range st.hourBits {
		st.hourBits[i] = 0
	}
	part := flows.NewShardPartial(c.cfg.Index, c.cfg.Days, c.partialOpts)
	c.mu.Lock()
	c.parts[st.index] = part
	c.mu.Unlock()
	st.part = part
	st.sink = part
	drainReader(raw)
	return nil
}

// drainReader consumes a reader to EOF so the exporter feeding it can
// complete. Unlike abortReader it must NOT close pipes with an error:
// under a graceful policy the exporter's writes should keep succeeding
// even though nobody analyzes them anymore. A nil reader (mapped-file
// replay: no transport to drain) is a no-op.
func drainReader(r io.Reader) {
	if r == nil {
		return
	}
	io.Copy(io.Discard, r) //nolint:errcheck // best-effort drain
}

// progressReader counts Read returns so the stall watchdog can tell a
// slow stream from a dead one.
type progressReader struct {
	r io.Reader
	n atomic.Uint64
}

func (p *progressReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	p.n.Add(1)
	return n, err
}

// watchStall aborts raw once pr makes no progress for a full interval.
// The abort surfaces in the decode loop as a transport error with
// st.stalled set, which is then handled per policy.
func watchStall(pr *progressReader, raw io.Reader, st *stream, interval time.Duration, stop chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	last := pr.n.Load()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			cur := pr.n.Load()
			if cur == last {
				st.stalled.Store(true)
				abortReader(raw, errStallTimeout)
				return
			}
			last = cur
		}
	}
}

// abortReader unblocks whoever is feeding a stream the collector has
// given up on: a pipe fails its writer, a connection closes, and
// anything else is drained to EOF. Without this, a live exporter would
// back-pressure forever into a stream nobody reads (and stall its
// sibling streams with it).
func abortReader(r io.Reader, cause error) {
	if r == nil {
		return
	}
	switch v := r.(type) {
	case *io.PipeReader:
		v.CloseWithError(cause)
	case io.Closer:
		v.Close()
	default:
		io.Copy(io.Discard, r) //nolint:errcheck // best-effort drain
	}
}

// IngestStreams ingests every reader concurrently and returns the first
// stream error. A failed stream's reader is aborted (closed or drained)
// so the exporter behind it unblocks and the healthy streams still run
// to completion.
func (c *Collector) IngestStreams(readers []io.Reader) error {
	return c.ingestStreams(nil, readers)
}

// IngestNamedStreams is IngestStreams with per-reader source labels for
// the Stats breakdown; names and readers must be the same length.
func (c *Collector) IngestNamedStreams(names []string, readers []io.Reader) error {
	if len(names) != len(readers) {
		return fmt.Errorf("collector: %d names for %d readers", len(names), len(readers))
	}
	return c.ingestStreams(names, readers)
}

func (c *Collector) ingestStreams(names []string, readers []io.Reader) error {
	errs := make([]error, len(readers))
	base := c.reserveStreams(len(readers))
	var wg sync.WaitGroup
	for i, r := range readers {
		name := ""
		if names != nil {
			name = names[i]
		}
		wg.Add(1)
		go func(i int, name string, r io.Reader) {
			defer wg.Done()
			if err := c.ingestIndexed(base+i, name, r); err != nil {
				errs[i] = err
				abortReader(r, err)
			}
		}(i, name, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("collector: stream %d: %w", i, err)
		}
	}
	return nil
}

// IngestFile replays one recorded framed stream from disk. The file is
// memory-mapped (on linux; read whole elsewhere) and frames decode
// zero-copy from the mapped bytes. When a Tap or stall watchdog is
// configured the file takes the streaming path instead — those seams
// wrap io.Readers.
func (c *Collector) IngestFile(path string) error {
	return c.ingestFileAt(c.reserveStreams(1), path)
}

// IngestFiles replays the recorded streams concurrently, one stream per
// file in slice order, and returns the first error.
func (c *Collector) IngestFiles(paths []string) error {
	base := c.reserveStreams(len(paths))
	errs := make([]error, len(paths))
	var wg sync.WaitGroup
	for i, p := range paths {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			errs[i] = c.ingestFileAt(base+i, p)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("collector: file %s: %w", paths[i], err)
		}
	}
	return nil
}

// ingestFileAt replays one file under a pre-reserved stream index.
func (c *Collector) ingestFileAt(idx int, path string) error {
	if c.cfg.Tap != nil || c.cfg.StallTimeout > 0 {
		f, err := os.Open(path)
		if err != nil {
			c.finish(c.newStreamAt(idx, path)) // keep the slot accounted
			return err
		}
		defer f.Close()
		return c.ingestIndexed(idx, path, f)
	}
	st := c.newStreamAt(idx, path)
	defer c.finish(st)
	data, done, err := mapFile(path)
	if err != nil {
		return err
	}
	defer done()
	return c.ingestFrames(st, nil, netflow.NewBytesFrameReader(data))
}

// IngestIPFIX consumes one stream of raw, self-delimiting NetFlow
// v9-in-IPFIX-framing messages — concatenated IPFIX messages as
// exporters write them to disk or TCP, no frame envelope — until EOF.
// Each message's 16-bit length field delimits it, so an undecodable
// message body is dropped in place under DropFrame; a header that does
// not parse loses delimitation and ends the stream per policy. Flow
// rows pend until EOF (IPFIX has no flush markers), then classify as
// one batch; counters scale by the configured fallback sampling
// rate, since IPFIX messages advertise none.
func (c *Collector) IngestIPFIX(name string, r io.Reader) error {
	st := c.newStream(name)
	defer c.finish(st)
	raw := r
	if c.cfg.Tap != nil {
		r = c.cfg.Tap(st.index, st.source, r)
	}
	st.templ = netflow.NewTemplateCache()
	fallback := c.cfg.Opts.SamplingRate
	var hdr [4]byte
	var msg []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				st.flush(fallback)
				return nil
			}
			// Mid-header death: the tail is lost either way.
			switch c.cfg.Policy {
			case DropFrame:
				st.stats.DroppedFrames++
				st.flush(fallback)
				drainReader(raw)
				return nil
			case QuarantineStream:
				return c.quarantine(st, raw)
			default:
				return err
			}
		}
		ver := binary.BigEndian.Uint16(hdr[:])
		msgLen := int(binary.BigEndian.Uint16(hdr[2:]))
		if ver != 10 || msgLen < 16 {
			// Without the length field there is no next-message boundary
			// to recover to.
			derr := fmt.Errorf("%w: IPFIX header version %d length %d", netflow.ErrBadPayload, ver, msgLen)
			switch c.cfg.Policy {
			case DropFrame:
				st.stats.DroppedFrames++
				st.flush(fallback)
				drainReader(raw)
				return nil
			case QuarantineStream:
				return c.quarantine(st, raw)
			default:
				return derr
			}
		}
		if cap(msg) < msgLen {
			msg = make([]byte, msgLen)
		}
		msg = msg[:msgLen]
		copy(msg, hdr[:])
		if _, err := io.ReadFull(r, msg[4:]); err != nil {
			switch c.cfg.Policy {
			case DropFrame:
				st.stats.DroppedFrames++
				st.flush(fallback)
				drainReader(raw)
				return nil
			case QuarantineStream:
				return c.quarantine(st, raw)
			default:
				return fmt.Errorf("collector: IPFIX message truncated: %w", err)
			}
		}
		st.stats.Frames++
		recs, derr := st.templ.Decode(msg, st.scratch[:0])
		if derr != nil {
			// The length field already delimited the message, so the
			// stream stays aligned: drop just this message.
			cont, err := c.payloadFault(st, raw, derr)
			if !cont {
				return err
			}
			continue
		}
		st.scratch = recs
		st.ingestTemplated(recs)
	}
}

// IngestPipes opens `streams` in-process pipe streams on c, for
// exporters that write rather than hand over readers (the wire-mode
// TrafficStudy, benchmarks). Write into the returned writers — they
// block under collector backpressure — then call wait, which closes
// them (EOF for the ingesters) and returns the first stream error.
// A stream that fails mid-feed rejects further writes with its error
// instead of deadlocking the writer.
func (c *Collector) IngestPipes(streams int) (writers []io.Writer, wait func() error) {
	writers = make([]io.Writer, streams)
	pipeWs := make([]*io.PipeWriter, streams)
	errs := make([]error, streams)
	base := c.reserveStreams(streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		pr, pw := io.Pipe()
		writers[i], pipeWs[i] = pw, pw
		wg.Add(1)
		go func(i int, pr *io.PipeReader) {
			defer wg.Done()
			if err := c.ingestIndexed(base+i, fmt.Sprintf("pipe-%d", i), pr); err != nil {
				errs[i] = err
				pr.CloseWithError(err)
			}
		}(i, pr)
	}
	wait = func() error {
		for _, pw := range pipeWs {
			pw.Close()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("collector: stream %d: %w", i, err)
			}
		}
		return nil
	}
	return writers, wait
}

// ReconnectConfig tunes IngestReconnecting's redial behavior.
type ReconnectConfig struct {
	// MaxAttempts caps redials after the initial connect; <= 0 means 5.
	MaxAttempts int
	// BaseDelay is the first backoff step (default 100ms); each further
	// attempt doubles it, capped at MaxDelay (default 30s). Every delay
	// is jittered by a seeded factor in [0.5, 1.5) so a fleet of
	// reconnecting collectors does not thunder back in lockstep —
	// seeded, so a replayed study reconnects identically.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the jitter draws.
	Seed int64
	// Sleep replaces time.Sleep in tests; nil means time.Sleep.
	Sleep func(time.Duration)
}

// IngestReconnecting ingests one stream whose transport can die and
// come back: dial opens (or reopens) the feed, and any mid-stream
// transport error triggers a redial with capped exponential backoff +
// jitter instead of ending the stream. Successful redials count in
// Stats.Reconnects. A clean EOF ends the stream normally; exhausting
// MaxAttempts surfaces the last error to the usual policy handling.
// Frame desync across a reconnect boundary is healed by the DropFrame
// resync path, so pair this with a non-Abort policy for long-lived
// feeds.
func (c *Collector) IngestReconnecting(name string, dial func(attempt int) (io.Reader, error), rc ReconnectConfig) error {
	if rc.MaxAttempts <= 0 {
		rc.MaxAttempts = 5
	}
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = 100 * time.Millisecond
	}
	if rc.MaxDelay <= 0 {
		rc.MaxDelay = 30 * time.Second
	}
	if rc.Sleep == nil {
		rc.Sleep = time.Sleep
	}
	st := c.newStream(name)
	defer c.finish(st)
	rr := &reconnectReader{
		dial: dial,
		rc:   rc,
		rng:  simrand.New(simrand.SeedN(rc.Seed, "collector/reconnect", int64(st.index))),
		onReconnect: func() {
			st.stats.Reconnects++
		},
	}
	r := io.Reader(rr)
	if c.cfg.Tap != nil {
		r = c.cfg.Tap(st.index, st.source, r)
	}
	if c.cfg.StallTimeout > 0 {
		// Same watchdog ingestIndexed arms: a reconnecting feed that
		// redials forever against a half-dead exporter (connects, then
		// never sends a frame) must degrade the vantage, not hang the
		// stream. The abort target is the reconnectReader itself — its
		// Close stops further redials as well as the live transport.
		pr := &progressReader{r: r}
		r = pr
		stop := make(chan struct{})
		defer close(stop)
		go watchStall(pr, rr, st, c.cfg.StallTimeout, stop)
	}
	return c.ingest(st, rr, r)
}

// reconnectReader is an io.Reader over a redialable transport.
type reconnectReader struct {
	dial        func(attempt int) (io.Reader, error)
	rc          ReconnectConfig
	rng         *simrand.Source
	onReconnect func()
	cur         io.Reader
	attempt     int // dials performed
	retries     int // backoffs taken
	err         error
	closed      atomic.Bool
}

func (r *reconnectReader) Read(p []byte) (int, error) {
	for {
		if r.err != nil {
			return 0, r.err
		}
		if r.closed.Load() {
			r.err = net.ErrClosed
			return 0, r.err
		}
		if r.cur == nil {
			cur, err := r.dial(r.attempt)
			r.attempt++
			if err != nil {
				if !r.backoff(err) {
					return 0, r.err
				}
				continue
			}
			if r.attempt > 1 && r.onReconnect != nil {
				r.onReconnect()
			}
			r.cur = cur
		}
		n, err := r.cur.Read(p)
		if err == nil {
			return n, nil
		}
		if err == io.EOF {
			r.err = io.EOF
			return n, nil // deliver the tail; EOF on the next call
		}
		// Transport death: drop the connection and redial after backoff.
		if cl, ok := r.cur.(io.Closer); ok {
			cl.Close()
		}
		r.cur = nil
		if !r.backoff(err) {
			return n, nil // surface r.err on the next call
		}
		if n > 0 {
			return n, nil
		}
	}
}

// backoff sleeps the next capped-exponential jittered delay, or records
// cause as the sticky error once MaxAttempts is exhausted.
func (r *reconnectReader) backoff(cause error) bool {
	if r.retries >= r.rc.MaxAttempts {
		r.err = cause
		return false
	}
	d := r.rc.BaseDelay << r.retries
	if d > r.rc.MaxDelay || d <= 0 {
		d = r.rc.MaxDelay
	}
	jitter := 0.5 + r.rng.Float64()
	r.rc.Sleep(time.Duration(float64(d) * jitter))
	r.retries++
	return true
}

// Close stops the reader: the current transport is closed and no
// further redials happen (the stall watchdog's abort path).
func (r *reconnectReader) Close() error {
	r.closed.Store(true)
	if cl, ok := r.cur.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// ListenTCP accepts connections from l and ingests each as one framed
// stream as it arrives. With streams > 0 it stops accepting after that
// many connections; with streams <= 0 it accepts until the listener is
// closed. Either way it returns once every in-flight stream has
// drained (first stream error wins) — closing l from another goroutine
// is the graceful-shutdown path: accepting stops, in-flight streams
// run to completion. The caller keeps ownership of l.
func (c *Collector) ListenTCP(l net.Listener, streams int) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for accepted := 0; streams <= 0 || accepted < streams; accepted++ {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				break // graceful shutdown: drain what's in flight
			}
			wg.Wait()
			return err
		}
		wg.Add(1)
		go func(stream int, conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			if err := c.IngestNamedStream(conn.RemoteAddr().String(), conn); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("collector: stream %d: %w", stream, err)
				}
				mu.Unlock()
				abortReader(conn, err)
			}
		}(accepted, conn)
	}
	wg.Wait()
	return firstErr
}

// ServeUDP ingests raw NetFlow datagrams (real-router interop: no frame
// envelope, no flush markers) from pc until it is closed. The version
// field picks the codec per datagram: 5 decodes as classic v5, 9 and 10
// as templated v9/IPFIX against a per-source template cache. Each
// source address is one shard with its own reused decode scratch;
// undecodable datagrams are counted in Stats.BadPackets and dropped,
// since UDP feeds lose and corrupt packets as a matter of course.
// Classification happens at close (one implicit flush per source), so
// this mode buffers each source's feed — size it accordingly.
func (c *Collector) ServeUDP(pc net.PacketConn) error {
	buf := make([]byte, 65535)
	streams := map[string]*stream{}
	defer func() {
		for _, st := range streams {
			st.flush(c.cfg.Opts.SamplingRate)
			c.finish(st)
		}
	}()
	for {
		n, addr, err := pc.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		key := addr.String()
		st, ok := streams[key]
		if !ok {
			st = c.newStream(key)
			st.live = true
			streams[key] = st
		}
		pkt := buf[:n]
		var ver uint16
		if n >= 2 {
			ver = binary.BigEndian.Uint16(pkt)
		}
		// Datagram counters fold into the totals immediately (not at
		// close) so a live feed is observable through Stats() while it
		// runs, and are mirrored into the stream's own counters for the
		// per-source breakdown; only the flush-time counters wait for
		// close (finish knows a live stream's arrival counters are
		// already in the totals).
		switch ver {
		case 5:
			h, recs, derr := netflow.DecodeV5StrictInto(pkt, st.scratch[:0])
			c.mu.Lock()
			if derr != nil {
				c.stats.BadPackets++
				st.stats.BadPackets++
				c.mu.Unlock()
				continue
			}
			st.scratch = recs
			c.stats.Frames++
			c.stats.V5Packets++
			c.stats.V4Records += uint64(len(recs))
			st.stats.Frames++
			st.stats.V5Packets++
			st.stats.V4Records += uint64(len(recs))
			for _, r := range recs {
				if r.Bytes == 0xFFFFFFFF {
					c.stats.SaturatedCounters++
					st.stats.SaturatedCounters++
				}
				if r.Packets == 0xFFFFFFFF {
					c.stats.SaturatedCounters++
					st.stats.SaturatedCounters++
				}
			}
			c.mu.Unlock()
			st.observeRate(h.SamplingRate())
			st.cover(recs)
			st.addRecords(recs)
		case 9, 10:
			if st.templ == nil {
				st.templ = netflow.NewTemplateCache()
			}
			recs, derr := st.templ.Decode(pkt, st.scratch[:0])
			c.mu.Lock()
			if derr != nil {
				c.stats.BadPackets++
				st.stats.BadPackets++
				c.mu.Unlock()
				continue
			}
			st.scratch = recs
			c.stats.Frames++
			c.stats.TemplatePackets++
			c.stats.TemplateRecords += uint64(len(recs))
			st.stats.Frames++
			st.stats.TemplatePackets++
			st.stats.TemplateRecords += uint64(len(recs))
			for _, r := range recs {
				if r.IsV4() {
					c.stats.V4Records++
					st.stats.V4Records++
				} else {
					c.stats.V6Records++
					st.stats.V6Records++
				}
			}
			c.mu.Unlock()
			st.cover(recs)
			st.addRecords(recs)
		default:
			c.mu.Lock()
			c.stats.BadPackets++
			st.stats.BadPackets++
			c.mu.Unlock()
		}
	}
}

// Finalize merges every stream's partial into the study aggregates —
// call after all ingestion has completed. With zero streams it returns
// empty aggregates. The merge consumes the partials; repeated calls
// return the cached result. In window mode it returns the trailing
// window's merged view (Window.Merged) — non-destructive, callable
// while ingestion continues.
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
// is a copy; the DictState values are live (checkpoint them only while
// no stream is ingesting under the same source).
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

// Stats returns a snapshot of the wire counters.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// StreamStats returns the per-stream breakdown of completed streams
// ordered by stream index, so anomalies in the totals (bad packets,
// rate mismatches, saturated counters) can be attributed to the feed
// that produced them.
func (c *Collector) StreamStats() []StreamStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]StreamStat(nil), c.perStream...)
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out
}
