package isp

import (
	"fmt"
	"io"
	"net/netip"
	"sync"

	"iotmap/internal/netflow"
)

// Wire export: SimulateLinesToWire is SimulateLines with the in-process
// sink replaced by the border-router export path — every line shard
// serializes its week as a dictionary stream (docs/wire-format.md): a
// hello frame, incremental line/backend dictionary deltas, columnar
// batch frames of dense-ID rows with full 64-bit counters, and a flush
// per line. The streams are what internal/collector ingests; together
// they make the wire a transparent seam in the simulate→aggregate
// pipeline.
//
// Determinism: per stream, lines are emitted in line order and each
// line's rows in simulation order, and dictionary IDs are assigned in
// first-use order — so stream s of an S-stream export is a pure function
// of (seed, config, S, s), byte for byte.
//
// Buffering: each shard encodes a whole line batch's frames into one
// reusable flush buffer (the netflow.Append* family — no intermediate
// per-frame allocations) and hands the filled buffer to its writer
// goroutine, which issues a single Write per batch and recycles the
// buffer through a fixed pool. The pool bounds memory: a slow collector
// exhausts the free buffers and throttles the simulation instead of
// growing an unbounded backlog. A write error stops the stream's output
// but lets the simulation drain to completion; SimulateLinesToWire
// reports the first error per stream.

// WireBufferBatches is the default per-stream buffer pool size: how
// many coalesced flush buffers (each ≥ wireSendBytes of encoded line
// batches) may be in flight between one shard's encoder and its writer
// goroutine before backpressure stalls the simulation.
const WireBufferBatches = 16

// wireSendBytes is the coalescing threshold: the encoder accumulates
// whole line batches in its flush buffer and sends once the buffer
// crosses this size (frames are never split across sends).
const wireSendBytes = 32 << 10

// WireStats summarizes one export run.
type WireStats struct {
	// Streams is the number of exported streams (== len(writers)).
	Streams int
	// Frames counts all frames.
	Frames uint64
	// V4Records/V6Records count exported flow records per family.
	V4Records uint64
	V6Records uint64
	// Flushes counts line-batch markers.
	Flushes uint64
	// DictEntries/BatchFrames count dictionary addresses shipped and
	// batch frames emitted.
	DictEntries uint64
	BatchFrames uint64
}

// wireShard is one stream's encoder state, owned by one worker.
type wireShard struct {
	buf []netflow.Record
	// out is the flush buffer the current line batch's frames append
	// into; filled buffers go to the writer over ch and come back
	// empty over pool.
	out  []byte
	ch   chan []byte
	pool chan []byte
	err  error // first encode error; the shard goes quiet after

	// The hello parameters, the per-stream address dictionaries with
	// their not-yet-shipped tails, and the reused column batch.
	epoch      int64
	rate       uint32
	helloSent  bool
	lineIDs    map[netip.Addr]uint32
	backendIDs map[netip.Addr]uint32
	pendLines  []netip.Addr
	pendBacks  []netip.Addr
	batch      netflow.RecordBatch

	WireStats
}

func (ws *wireShard) sink(r netflow.Record) { ws.buf = append(ws.buf, r) }

// maybeSend hands the accumulated flush buffer to the writer once it
// crosses the coalescing threshold, taking a recycled buffer back.
// Blocking on the pool is the backpressure that throttles the
// simulation. Coalescing several line batches per send changes only
// the Write chunking, never the byte stream — but it matters: every
// send costs a channel handoff plus an io.Pipe (or socket) rendezvous,
// and at one send per line those context switches were the single
// largest wire-only cost on a single-core run.
func (ws *wireShard) maybeSend() {
	if len(ws.out) < wireSendBytes {
		return
	}
	ws.ch <- ws.out
	ws.out = <-ws.pool
}

// lineDictID interns a line address into the stream dictionary, queuing
// new entries for the next dictionary frame.
func (ws *wireShard) lineDictID(a netip.Addr) uint32 {
	id, ok := ws.lineIDs[a]
	if !ok {
		id = uint32(len(ws.lineIDs))
		ws.lineIDs[a] = id
		ws.pendLines = append(ws.pendLines, a)
	}
	return id
}

// backendDictID is lineDictID for the backend-side dictionary.
func (ws *wireShard) backendDictID(a netip.Addr) uint32 {
	id, ok := ws.backendIDs[a]
	if !ok {
		id = uint32(len(ws.backendIDs))
		ws.backendIDs[a] = id
		ws.pendBacks = append(ws.pendBacks, a)
	}
	return id
}

// endLine frames the buffered line batch: (on first flush) a hello
// frame, then dictionary deltas for any addresses making their stream
// debut, the rows as columnar batch frames, and the flush marker — one
// flush buffer, one writer send.
//
// Endpoint classification is exporter-side: the address plan (LineSlot)
// decides which end is the subscriber line, and because plan addresses
// are disjoint from every backend pool this matches the collector-side
// lineSide classification record for record.
func (ws *wireShard) endLine() {
	defer func() { ws.buf = ws.buf[:0] }()
	if ws.err != nil {
		return
	}
	out := ws.out
	if !ws.helloSent {
		out = netflow.AppendHelloFrame(out, ws.rate, ws.epoch)
		ws.helloSent = true
		ws.Frames++
	}
	b := &ws.batch
	b.Reset()
	// One line flushes from at most one V4 and one V6 address, and
	// backend pools cluster, so memoize the last lookup per column.
	var memoLineAddr, memoBackAddr netip.Addr
	var memoLineID, memoBackID uint32
	var memoLineV4, memoBackV4 bool
	for _, r := range ws.buf {
		var lineAddr, backAddr netip.Addr
		var down bool
		if _, _, ok := LineSlot(r.Dst); ok {
			lineAddr, backAddr, down = r.Dst, r.Src, true
		} else if _, _, ok := LineSlot(r.Src); ok {
			lineAddr, backAddr, down = r.Src, r.Dst, false
		} else {
			ws.err = fmt.Errorf("isp: wire record %v -> %v has no plan-side subscriber", r.Src, r.Dst)
			return
		}
		sec := r.Start.Unix() - ws.epoch
		if sec < 0 || sec%3600 != 0 || sec/3600 > 0xFFFF {
			ws.err = fmt.Errorf("isp: wire record start %v is not hour-aligned within the epoch window", r.Start)
			return
		}
		if lineAddr != memoLineAddr {
			memoLineAddr, memoLineID = lineAddr, ws.lineDictID(lineAddr)
			memoLineV4 = lineAddr.Is4() || lineAddr.Is4In6()
		}
		if backAddr != memoBackAddr {
			memoBackAddr, memoBackID = backAddr, ws.backendDictID(backAddr)
			memoBackV4 = backAddr.Is4() || backAddr.Is4In6()
		}
		port := r.SrcPort
		if !down {
			port = r.DstPort
		}
		b.Append(memoLineID, memoBackID, down, int32(sec/3600), port, r.Proto, r.Bytes, r.Packets)
		// Record.IsV4 under the memo: both memoized endpoint families.
		if memoLineV4 && memoBackV4 {
			ws.V4Records++
		} else {
			ws.V6Records++
		}
	}
	var err error
	if len(ws.pendLines) > 0 {
		base := uint32(len(ws.lineIDs) - len(ws.pendLines))
		if out, err = netflow.AppendDictFrame(out, netflow.FrameLineDict, base, ws.pendLines); err != nil {
			ws.err = err
			return
		}
		ws.Frames++
		ws.DictEntries += uint64(len(ws.pendLines))
		ws.pendLines = ws.pendLines[:0]
	}
	if len(ws.pendBacks) > 0 {
		base := uint32(len(ws.backendIDs) - len(ws.pendBacks))
		if out, err = netflow.AppendDictFrame(out, netflow.FrameBackendDict, base, ws.pendBacks); err != nil {
			ws.err = err
			return
		}
		ws.Frames++
		ws.DictEntries += uint64(len(ws.pendBacks))
		ws.pendBacks = ws.pendBacks[:0]
	}
	var frames int
	if out, frames, err = netflow.AppendBatchFrames(out, b); err != nil {
		ws.err = err
		return
	}
	ws.Frames += uint64(frames)
	ws.BatchFrames += uint64(frames)
	out = netflow.AppendFlushFrame(out)
	ws.Frames++
	ws.Flushes++
	ws.out = out
	ws.maybeSend()
}

// SimulateLinesToWire exports the whole study period as len(writers)
// concurrent dictionary streams, one contiguous line shard per writer —
// the wire twin of SimulateLines. buffer is the per-stream in-flight
// line-batch pool before backpressure (<=0 means WireBufferBatches). It
// returns aggregate export stats and the first error any stream hit
// (encode or write); writers are not closed — the caller owns their
// lifecycle, and must close them for collectors reading until EOF.
func (n *Network) SimulateLinesToWire(writers []io.Writer, buffer int) (WireStats, error) {
	if len(writers) == 0 {
		return WireStats{}, fmt.Errorf("isp: no writers")
	}
	if buffer <= 0 {
		buffer = WireBufferBatches
	}

	shards := make([]*wireShard, len(writers))
	writeErrs := make([]error, len(writers))
	var wg sync.WaitGroup
	for i, w := range writers {
		ws := &wireShard{
			ch: make(chan []byte, buffer),
			// One slot of headroom: the end-of-run flush of a partial
			// coalescing buffer sends without taking a replacement, so
			// the writer recycles one more buffer than the pool was
			// seeded with — without the slack it would block forever.
			pool:       make(chan []byte, buffer+1),
			epoch:      n.World.Days[0].Unix(),
			rate:       n.Cfg.SamplingRate,
			lineIDs:    map[netip.Addr]uint32{},
			backendIDs: map[netip.Addr]uint32{},
		}
		// One buffer in the encoder's hand, `buffer` more in the pool,
		// each sized for the coalescing threshold plus one line batch
		// of slack so steady state never reallocates.
		ws.out = make([]byte, 0, wireSendBytes+4096)
		for b := 0; b < buffer; b++ {
			ws.pool <- make([]byte, 0, wireSendBytes+4096)
		}
		shards[i] = ws
		wg.Add(1)
		go func(w io.Writer, ws *wireShard, errp *error) {
			defer wg.Done()
			for b := range ws.ch {
				if *errp == nil && len(b) > 0 {
					if _, err := w.Write(b); err != nil {
						*errp = err
					}
				}
				ws.pool <- b[:0] // recycle so the encoder never starves
			}
		}(w, ws, &writeErrs[i])
	}

	n.SimulateLines(len(writers),
		func(shard int) func(netflow.Record) { return shards[shard].sink },
		func(shard int, _ *Line) { shards[shard].endLine() },
	)
	for _, ws := range shards {
		// Flush the partial coalescing buffer before ending the stream.
		if len(ws.out) > 0 {
			ws.ch <- ws.out
			ws.out = nil
		}
		close(ws.ch)
	}
	wg.Wait()

	stats := WireStats{Streams: len(writers)}
	var firstErr error
	for i, ws := range shards {
		stats.Frames += ws.Frames
		stats.V4Records += ws.V4Records
		stats.V6Records += ws.V6Records
		stats.Flushes += ws.Flushes
		stats.DictEntries += ws.DictEntries
		stats.BatchFrames += ws.BatchFrames
		if firstErr == nil && ws.err != nil {
			firstErr = fmt.Errorf("isp: wire stream %d: %w", i, ws.err)
		}
		if firstErr == nil && writeErrs[i] != nil {
			firstErr = fmt.Errorf("isp: wire stream %d: %w", i, writeErrs[i])
		}
	}
	return stats, firstErr
}

// WireFormat names an export encoding. WireDict, the dictionary stream,
// is the only one.
type WireFormat int

// WireDict is the encoding SimulateLinesToWire emits.
const WireDict WireFormat = 0

// SimulateLinesToWireFormat is SimulateLinesToWire behind a format
// argument that must be WireDict. It exists for the benchmark module,
// which pins this signature.
func (n *Network) SimulateLinesToWireFormat(writers []io.Writer, buffer int, format WireFormat) (WireStats, error) {
	if format != WireDict {
		return WireStats{}, fmt.Errorf("isp: unknown wire format %d", format)
	}
	return n.SimulateLinesToWire(writers, buffer)
}
