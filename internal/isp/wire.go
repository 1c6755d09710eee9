package isp

import (
	"fmt"
	"io"
	"net/netip"
	"sync"

	"iotmap/internal/netflow"
)

// Wire export: SimulateLinesToWire is EmitLines with the in-process
// fold replaced by the border-router export path — every line shard
// serializes its rows as a dictionary stream (docs/wire-format.md): a
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
	// out is the flush buffer the current line batch's frames append
	// into; filled buffers go to the writer over ch and come back
	// empty over pool.
	out  []byte
	ch   chan []byte
	pool chan []byte
	err  error // first encode error; the shard goes quiet after

	// The hello parameters, then the dictionaries: entries shipped,
	// backIDs[ord] = server ord's backend ID+1 (0 = not yet), and the
	// entries the next dictionary frames ship.
	epoch     int64
	rate      uint32
	helloSent bool
	addrs     []netip.Addr // the Network's server table
	lines     uint32
	backs     uint32
	backIDs   []uint32
	pendLines []netip.Addr
	pendBacks []netip.Addr

	WireStats
}

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

// endLine frames one line's rows (EmitLines' shape, rewritten in place
// to stream IDs): on first flush a hello frame, then dictionary deltas
// for any addresses making their stream debut, the rows as columnar
// batch frames, and the flush marker — one flush buffer, one writer
// send.
//
// Dictionary IDs are assigned in first-use order. A line's addresses
// appear in its own rows only, so the line dictionary is a two-entry
// memo per line; the backend dictionary is indexed by server ordinal.
func (ws *wireShard) endLine(line *Line, b *netflow.RecordBatch) {
	if ws.err != nil {
		return
	}
	out := ws.out
	if !ws.helloSent {
		out = netflow.AppendHelloFrame(out, ws.rate, ws.epoch)
		ws.helloSent = true
		ws.Frames++
	}
	var lineIDs [2]uint32 // ID+1 per line column; 0 = not shipped
	var buf [2]netip.Addr
	addrs := line.AppendAddrs(buf[:0])
	for i, slot := range b.Line {
		if lineIDs[slot] == 0 {
			ws.pendLines = append(ws.pendLines, addrs[slot])
			ws.lines++
			lineIDs[slot] = ws.lines
		}
		b.Line[i] = lineIDs[slot] - 1
		ord := b.Backend[i]
		if ws.backIDs[ord] == 0 {
			ws.pendBacks = append(ws.pendBacks, ws.addrs[ord])
			ws.backs++
			ws.backIDs[ord] = ws.backs
		}
		b.Backend[i] = ws.backIDs[ord] - 1
		// A row's two ends share a family: a v6 server pairs with the
		// line's V6 address, and scanners probe v4 targets from V4.
		if slot == 0 {
			ws.V4Records++
		} else {
			ws.V6Records++
		}
	}
	var err error
	if len(ws.pendLines) > 0 {
		base := ws.lines - uint32(len(ws.pendLines))
		if out, err = netflow.AppendDictFrame(out, netflow.FrameLineDict, base, ws.pendLines); err != nil {
			ws.err = err
			return
		}
		ws.Frames++
		ws.DictEntries += uint64(len(ws.pendLines))
		ws.pendLines = ws.pendLines[:0]
	}
	if len(ws.pendBacks) > 0 {
		base := ws.backs - uint32(len(ws.pendBacks))
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
			pool:    make(chan []byte, buffer+1),
			epoch:   n.World.Days[0].Unix(),
			rate:    n.Cfg.SamplingRate,
			addrs:   n.addrs,
			backIDs: make([]uint32, len(n.addrs)),
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

	n.EmitLines(len(writers), func(shard int, line *Line, rows *netflow.RecordBatch) {
		shards[shard].endLine(line, rows)
	})
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
// argument that must be WireDict: an adapter that exists because the
// benchmark module pins this signature.
func (n *Network) SimulateLinesToWireFormat(writers []io.Writer, buffer int, format WireFormat) (WireStats, error) {
	if format != WireDict {
		return WireStats{}, fmt.Errorf("isp: unknown wire format %d", format)
	}
	return n.SimulateLinesToWire(writers, buffer)
}
