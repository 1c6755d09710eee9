package main

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"iotmap/internal/core/flows"
	"iotmap/internal/netflow"
)

// The functions here drive one layer at a time on pre-built inputs, so a
// traced run can split what a single product call (IngestFiles, a TCP
// feed) does inside: decode alone, then the fold alone on rows decoded
// beforehand; what remains of the enclosing call is the collector's own
// dispatch.

// decodeCount is what one decode-only walk over a recorded stream saw.
type decodeCount struct {
	frames  int64
	records int64
}

// decodeOnly walks a dictionary-format stream exactly as far as the
// netflow layer goes — envelope parse plus hello, dictionary and batch
// payload decode — and drops the rows.
func decodeOnly(data []byte) (decodeCount, error) {
	var c decodeCount
	fr := netflow.NewBytesFrameReader(data)
	var batch netflow.RecordBatch
	var addrs []netip.Addr
	for {
		f, err := fr.Next()
		if err == io.EOF {
			return c, nil
		}
		if err != nil {
			return c, err
		}
		c.frames++
		switch f.Type {
		case netflow.FrameHello:
			_, _, err = netflow.DecodeHelloPayload(f.Payload)
		case netflow.FrameLineDict, netflow.FrameBackendDict:
			_, addrs, err = netflow.DecodeDictPayload(f.Payload, addrs[:0])
		case netflow.FrameBatch:
			batch.Reset()
			err = netflow.DecodeBatchPayload(f.Payload, &batch)
			c.records += int64(batch.Len())
		case netflow.FrameFlush:
		default:
			err = fmt.Errorf("unexpected frame type %#x in a dictionary stream", f.Type)
		}
		if err != nil {
			return c, err
		}
	}
}

// flushOp is one flush interval of a decoded stream: the dictionary
// deltas that preceded it and its rows, normalized the way the collector
// hands them to a sink (hours relative to the study start, counters
// scaled back to estimates).
type flushOp struct {
	lineBase, backBase uint32
	lines, backs       []netip.Addr
	batch              netflow.RecordBatch
}

// predecode turns a recorded stream into its flush intervals. studyStart
// must equal the stream's hello epoch, which holds for every feed the
// benchmark makes.
func predecode(data []byte, studyStart time.Time) ([]flushOp, error) {
	fr := netflow.NewBytesFrameReader(data)
	var ops []flushOp
	cur := &flushOp{}
	rate := uint64(1)
	for {
		f, err := fr.Next()
		if err == io.EOF {
			if cur.batch.Len() > 0 || len(cur.lines)+len(cur.backs) > 0 {
				return nil, errors.New("predecode: stream ends inside a flush interval")
			}
			return ops, nil
		}
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case netflow.FrameHello:
			r, epoch, err := netflow.DecodeHelloPayload(f.Payload)
			if err != nil {
				return nil, err
			}
			if epoch != studyStart.Unix() {
				return nil, fmt.Errorf("predecode: hello epoch %d is not the study start %d", epoch, studyStart.Unix())
			}
			rate = uint64(max(r, 1))
		case netflow.FrameLineDict, netflow.FrameBackendDict:
			base, addrs, err := netflow.DecodeDictPayload(f.Payload, nil)
			if err != nil {
				return nil, err
			}
			// Deltas within one flush interval are contiguous per kind,
			// so they concatenate onto the first base.
			if f.Type == netflow.FrameLineDict {
				if len(cur.lines) == 0 {
					cur.lineBase = base
				}
				cur.lines = append(cur.lines, addrs...)
			} else {
				if len(cur.backs) == 0 {
					cur.backBase = base
				}
				cur.backs = append(cur.backs, addrs...)
			}
		case netflow.FrameBatch:
			from := cur.batch.Len()
			if err := netflow.DecodeBatchPayload(f.Payload, &cur.batch); err != nil {
				return nil, err
			}
			for i := from; i < cur.batch.Len(); i++ {
				cur.batch.Bytes[i] *= rate
				cur.batch.Packets[i] *= rate
			}
		case netflow.FrameFlush:
			ops = append(ops, *cur)
			cur = &flushOp{}
		default:
			return nil, fmt.Errorf("predecode: unexpected frame type %#x", f.Type)
		}
	}
}

// foldOnly replays pre-decoded flush intervals into a sink through the
// calls the collector makes per frame and per flush, and returns the
// rows folded.
func foldOnly(sink flows.Sink, ops []flushOp) (int64, error) {
	t := sink.NewWireTables()
	var rows int64
	for i := range ops {
		op := &ops[i]
		if len(op.lines) > 0 {
			if err := t.AddLines(op.lineBase, op.lines); err != nil {
				return rows, err
			}
		}
		if len(op.backs) > 0 {
			if err := t.AddBackends(op.backBase, op.backs); err != nil {
				return rows, err
			}
		}
		if err := t.Validate(&op.batch, 0); err != nil {
			return rows, err
		}
		sink.IngestBatch(t, &op.batch)
		rows += int64(op.batch.Len())
	}
	return rows, nil
}
