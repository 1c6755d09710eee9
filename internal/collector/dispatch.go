// Frame dispatch: the decode loop every framed transport shares, the
// per-frame and per-datagram decoders, and the flush that folds a
// stream's pending rows into its sink.

package collector

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"time"

	"iotmap/internal/core/flows"
	"iotmap/internal/netflow"
)

// resetDict (re)initializes the dictionary state on a hello frame. A
// reconnected or restarted exporter re-sends hello and rebuilds its
// dictionaries from ID zero, so arriving mid-stream is self-healing.
func (st *stream) resetDict(epoch int64) {
	st.epoch = epoch
	st.tables = st.sink.NewWireTables()
	st.cur.rows.Truncate(st.rowsFrom)
	st.lineV4 = st.lineV4[:0]
	st.backV4 = st.backV4[:0]
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
		st.recTables.AppendRecord(&st.cur.recs, r)
	}
}

// flush completes the pending flush interval (the scanner-
// classification point): its rows close into the fold calls the
// stream's folder makes, dictionary rows first. Dictionary rows were
// rebased and scaled at decode; record rows are scaled here, by the
// header rate or, before any v5 header, the fallback.
func (st *stream) flush() {
	ch := st.cur
	if ch.rows.Len() > st.rowsFrom {
		st.closeRows(&ch.rows, st.rowsFrom, st.tables, false)
	}
	if st.pending > 0 {
		rate := uint64(st.rate)
		if rate == 0 {
			rate = uint64(max(st.fallback, 1))
			st.fallbackUsed = uint32(rate)
		}
		if rate > 1 {
			for i := st.recsFrom; i < ch.recs.Len(); i++ {
				ch.recs.Bytes[i] *= rate
				ch.recs.Packets[i] *= rate
			}
		}
		st.stats.ScaledBytes += st.pendingBytes * rate
		st.closeRows(&ch.recs, st.recsFrom, st.recTables, true)
		st.pending, st.pendingBytes = 0, 0
	}
	st.fill(st.folder.flushed(ch))
}

// closeRows closes rows [from, b.Len()) of the chunk being filled,
// resolved through t, into one fold call. A batch stream classifies
// them here, on the decode goroutine: its ShardPartial's decode half
// counts their contacts and compacts them to the rows its fold half
// takes, so the fold goroutine only aggregates. A window stream leaves
// the whole flush to Window.IngestBatch on the fold goroutine, which
// classifies under the shard lock: the window has no ingest-time
// ContactCounter to feed here, and a live daemon's decoder is already
// as busy as its fold, so moving the classifier over would only make
// the decoder the bottleneck.
func (st *stream) closeRows(b *netflow.RecordBatch, from int, t *flows.WireTables, recs bool) {
	call := foldCall{sink: st.sink, view: t.View(), recs: recs, lo: from}
	if st.part != nil {
		rows := b.Slice(from, b.Len())
		st.part.Classify(t, &rows)
		b.Truncate(from + rows.Len())
		call.part = st.part
	}
	if call.hi = b.Len(); call.hi > from {
		st.cur.calls = append(st.cur.calls, call)
	}
}

// join hands every closed flush interval to the fold and waits until
// it is in the sink; the open interval is discarded. Every point that
// ends a stream or swaps its sink joins first.
func (st *stream) join() {
	st.fill(st.folder.join(st.cur))
}

// fill makes ch the chunk being filled; whatever ch already holds is
// closed, so the open interval starts at its end.
func (st *stream) fill(ch *chunk) {
	st.cur = ch
	st.rowsFrom, st.recsFrom = ch.rows.Len(), ch.recs.Len()
}

// frameSource is a stream of frames with resynchronization — the
// abstraction ingestFrames decodes from, satisfied by both the
// io.Reader-backed netflow.FrameReader and the zero-copy
// netflow.BytesFrameReader over a mapped file.
type frameSource interface {
	Next() (netflow.Frame, error)
	Resync() (int64, error)
}

// ingestFrames is the decode loop shared by every framed transport. raw
// is the transport-level reader abort and drain act on (nil for a
// mapped file); fr decodes from its tapped, watchdogged view.
func (c *Collector) ingestFrames(st *stream, raw io.Reader, fr frameSource) error {
	for {
		f, err := fr.Next()
		switch {
		case err == nil:
			st.stats.Frames++
			if derr := st.frame(f); derr != nil {
				if cont, err := c.payloadFault(st, raw, derr); !cont {
					return err
				}
			}
		case err == io.EOF:
			st.flush() // implicit final flush
			return nil
		case c.cfg.Policy == DropFrame && netflow.IsCorruptFrame(err):
			// Bad envelope: scan forward to the next plausible frame
			// boundary and resume.
			st.stats.ResyncEvents++
			if _, rerr := fr.Resync(); rerr != nil {
				return c.endStream(st, raw, rerr, false)
			}
		default:
			// A tail cut mid-frame costs that frame; a dead transport
			// costs none.
			return c.endStream(st, raw, err, netflow.IsTruncation(err))
		}
		st.publish()
	}
}

// frame decodes one intact frame into the stream; an error is a payload
// fault for the caller's policy.
func (st *stream) frame(f netflow.Frame) error {
	switch f.Type {
	case netflow.FrameV5:
		return st.v5(f.Payload)
	case netflow.FrameV6:
		recs, err := netflow.DecodeV6PayloadInto(f.Payload, st.scratch[:0])
		if err != nil {
			return err
		}
		st.scratch = recs
		st.stats.V6Records += uint64(len(recs))
		st.cover(recs)
		st.addRecords(recs)
	case netflow.FrameHello:
		rate, epoch, err := netflow.DecodeHelloPayload(f.Payload)
		if err != nil {
			return err
		}
		st.observeRate(rate)
		st.resetDict(epoch)
	case netflow.FrameLineDict, netflow.FrameBackendDict:
		return st.dictFrame(f)
	case netflow.FrameBatch:
		return st.batchFrame(f)
	case netflow.FrameTempl:
		return st.templated(f.Payload)
	case netflow.FrameFlush:
		st.stats.Flushes++
		st.flush()
	}
	return nil
}

// datagram decodes one raw UDP datagram, picking the codec by its
// version word: 5 decodes as classic v5, 9 and 10 as templated
// v9/IPFIX. Only a decoded datagram counts as a frame.
func (st *stream) datagram(pkt []byte) error {
	var ver uint16
	if len(pkt) >= 2 {
		ver = binary.BigEndian.Uint16(pkt)
	}
	var err error
	switch ver {
	case 5:
		err = st.v5(pkt)
	case 9, 10:
		err = st.templated(pkt)
	default:
		err = fmt.Errorf("%w: datagram version %d", netflow.ErrBadPayload, ver)
	}
	if err == nil {
		st.stats.Frames++
	}
	return err
}

// v5 decodes one v5 packet into the stream.
func (st *stream) v5(pkt []byte) error {
	h, recs, err := netflow.DecodeV5StrictInto(pkt, st.scratch[:0])
	if err != nil {
		return err
	}
	st.scratch = recs
	st.cover(recs)
	st.ingestV5(h, recs)
	return nil
}

// templated decodes one NetFlow v9 or IPFIX message into the stream
// against its template cache, created on first use.
func (st *stream) templated(pkt []byte) error {
	if st.templ == nil {
		st.templ = netflow.NewTemplateCache()
	}
	recs, err := st.templ.Decode(pkt, st.scratch[:0])
	if err != nil {
		return err
	}
	st.scratch = recs
	st.ingestTemplated(recs)
	return nil
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

// batchFrame decodes one columnar batch frame into the chunk being
// filled and normalizes the rows in place: the hour column rebases
// from the exporter's epoch to study hours (negative = outside the
// study window), counters scale back to estimates, and the wire/
// liveness counters fold as the rows stream past. Classification and
// the analysis fold start at the flush boundary.
func (st *stream) batchFrame(f netflow.Frame) error {
	if st.tables == nil {
		return fmt.Errorf("%w: batch frame before hello", netflow.ErrBadPayload)
	}
	b := &st.cur.rows
	from := b.Len()
	if err := netflow.DecodeBatchPayload(f.Payload, b); err != nil {
		return err
	}
	if err := st.tables.Validate(b, from); err != nil {
		b.Truncate(from)
		return fmt.Errorf("%w: %v", netflow.ErrBadPayload, err)
	}
	n := b.Len() - from
	rate := uint64(st.rate)
	if rate == 0 {
		rate = 1
	}
	offSec := st.epoch - st.start.Unix()
	aligned := offSec%3600 == 0
	hourOff := offSec / 3600
	for i := from; i < b.Len(); i++ {
		var sh int64
		if aligned {
			sh = hourOff + int64(b.Hour[i])
		} else {
			sh = floorDiv(offSec+int64(b.Hour[i])*3600, 3600)
		}
		switch {
		case sh < 0:
			b.Hour[i] = -1
		case sh >= int64(st.hours):
			// Past the study window: keep the (positive) hour so
			// IngestBatch's range check drops the row, like the record
			// path's hour rejection.
			b.Hour[i] = int32(min(sh, int64(1<<31-1)))
		default:
			b.Hour[i] = int32(sh)
			st.hourBits[sh>>6] |= 1 << (sh & 63)
		}
		if rate > 1 {
			b.Bytes[i] *= rate
			b.Packets[i] *= rate
		}
		st.stats.ScaledBytes += b.Bytes[i]
		if st.lineV4[b.Line[i]] && st.backV4[b.Backend[i]] {
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
