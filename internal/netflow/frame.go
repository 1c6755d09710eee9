package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// The collector ingestion path moves NetFlow over byte streams (TCP
// connections, pipes, recorded files), where datagram framing does not
// exist: packets need explicit delimitation, and the single-pass
// aggregation needs to know when one subscriber line's batch is
// complete. A frame is the smallest unit of both:
//
//	"NF" | type (1 byte) | payload length (uint32 BE) | payload
//
// A framed stream carries the dictionary frames of batch.go and:
//
//	FrameFlush empty payload; the exporter emits one after each
//	           subscriber line's batch, letting the collector classify
//	           scanner lines incrementally instead of buffering the
//	           whole week. A stream without flush frames is still valid:
//	           EOF is an implicit final flush.
//
// Each type has a payload limit (frameLimit); a header over it is a
// corrupt envelope. Over UDP, raw v5, v9 and IPFIX datagrams (no frame
// envelope) are the interop format; framing is only for stream
// transports.
const FrameFlush = 0x0F

const (
	frameMagic0 = 'N'
	frameMagic1 = 'F'
	frameHeader = 7
	// MaxFramePayload is the dictionary frames' payload limit, so
	// corrupt length fields cannot drive huge allocations; the other
	// types have tighter ones (frameLimit).
	MaxFramePayload = 1 << 20
)

// Framing errors. All three mark *corruption* — the stream carried
// bytes that are not a frame — as opposed to truncation (errors
// wrapping io.ErrUnexpectedEOF), where the stream simply stopped
// mid-frame. Callers that self-heal (the collector's resync path) key
// the distinction on these sentinels: corruption can be scanned past,
// truncation cannot.
var (
	ErrBadFrameMagic = errors.New("netflow: bad frame magic")
	ErrBadFrameType  = errors.New("netflow: unknown frame type")
	ErrFrameTooBig   = errors.New("netflow: frame payload exceeds limit")
)

// Operator-facing aliases for the framing sentinels, matching the names
// collector logs and docs use.
var (
	ErrBadMagic      = ErrBadFrameMagic
	ErrOversizeFrame = ErrFrameTooBig
)

// IsCorruptFrame reports whether err marks a corrupt frame envelope —
// bytes that are not a frame at all — which a resync scan can skip
// past. Truncation (io.ErrUnexpectedEOF) and transport errors are not
// corruption: the stream is gone, not garbled.
func IsCorruptFrame(err error) bool {
	return errors.Is(err, ErrBadFrameMagic) || errors.Is(err, ErrBadFrameType) || errors.Is(err, ErrFrameTooBig)
}

// IsTruncation reports whether err marks a stream that stopped
// mid-frame or mid-record.
func IsTruncation(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }

// Frame is one decoded frame envelope. Payload aliases the reader's
// window; FrameReader says how long it stays valid.
type Frame struct {
	Type    byte
	Payload []byte
}

// The Append* family is the one frame encoder: it appends frames
// directly onto one reusable buffer — envelope, payload, everything — so
// a whole subscriber-line batch becomes a single contiguous byte run
// that can be handed to an io.Writer (or a channel) in one piece.

// beginFrame appends a frame envelope with a zero length field and
// returns the offset where the payload starts; endFrame patches the
// length once the payload has been appended in place.
func beginFrame(dst []byte, typ byte) ([]byte, int) {
	dst = append(dst, frameMagic0, frameMagic1, typ, 0, 0, 0, 0)
	return dst, len(dst)
}

// endFrame checks the in-place payload against its type's limit and
// patches the envelope's length field, so the encoder never writes a
// frame the reader would reject. payloadStart must come from the
// matching beginFrame.
func endFrame(dst []byte, payloadStart int) ([]byte, error) {
	typ := dst[payloadStart-5]
	limit, ok := frameLimit(typ)
	if !ok {
		return nil, fmt.Errorf("%w: 0x%02x", ErrBadFrameType, typ)
	}
	n := len(dst) - payloadStart
	if n > int(limit) {
		return nil, fmt.Errorf("%w: type 0x%02x carries %d bytes (limit %d)", ErrFrameTooBig, typ, n, limit)
	}
	binary.BigEndian.PutUint32(dst[payloadStart-4:], uint32(n))
	return dst, nil
}

// AppendFrame appends one complete frame (envelope plus payload copy).
func AppendFrame(dst []byte, typ byte, payload []byte) ([]byte, error) {
	dst, start := beginFrame(dst, typ)
	return endFrame(append(dst, payload...), start)
}

// AppendFlushFrame appends a line-batch boundary marker.
func AppendFlushFrame(dst []byte) []byte {
	dst, _ = beginFrame(dst, FrameFlush)
	return dst
}

// FrameReader parses frames in place from a byte window, buf[off:end].
// Over an io.Reader (NewFrameReader) the window is a frameBuf-byte
// buffer that refills with one Read only when the frame being parsed is
// incomplete, so Next never waits for bytes past the current frame: a
// live exporter that goes quiet after a flush still has that flush
// delivered. Over a byte slice (NewBytesFrameReader, the mmap replay
// path) the window is the whole slice and never refills.
//
// A payload aliases the window: over a stream it is valid until the
// next Next or Resync, over a slice for as long as the slice.
//
// After a corrupt-envelope error (IsCorruptFrame) the reader sits one
// byte past the rejected header's start, so Resync — which scans for the
// next plausible "NF" header — cannot re-find the rejected candidate,
// and a self-healing collector skips damage instead of aborting.
type FrameReader struct {
	r        io.Reader // nil over a byte slice
	buf      []byte
	off, end int
	err      error // a Read error held back until the window runs dry
}

// frameBuf is a stream reader's window size; a frame larger than it
// grows the window to fit.
const frameBuf = 64 << 10

// NewFrameReader returns a reader over a stream.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, frameBuf)}
}

// NewBytesFrameReader returns a reader over data; payloads alias it.
func NewBytesFrameReader(data []byte) *FrameReader {
	return &FrameReader{buf: data, end: len(data)}
}

// fill makes the window hold at least need bytes, reading only while it
// holds fewer. Each refill first moves the unread tail to the front, so
// one Read can fill the rest of the buffer. A byte slice has nothing
// more to give: io.EOF.
func (fr *FrameReader) fill(need int) error {
	for fr.end-fr.off < need {
		if fr.r == nil {
			return io.EOF
		}
		if err := fr.err; err != nil {
			fr.err = nil
			return err
		}
		if fr.off > 0 {
			fr.end = copy(fr.buf, fr.buf[fr.off:fr.end])
			fr.off = 0
		}
		if need > len(fr.buf) {
			b := slices.Grow(fr.buf[:fr.end], need-fr.end)
			fr.buf = b[:cap(b)]
		}
		n, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += n
		fr.err = err
	}
	return nil
}

// Next parses one frame; io.EOF signals a clean end on a frame boundary.
// A source that ends mid-frame yields a descriptive error wrapping
// io.ErrUnexpectedEOF — never a silent short read.
func (fr *FrameReader) Next() (Frame, error) {
	if err := fr.fill(frameHeader); err != nil {
		if err == io.EOF && fr.off == fr.end {
			return Frame{}, io.EOF
		}
		return Frame{}, fr.truncated(err, "netflow: frame header truncated")
	}
	hdr := fr.buf[fr.off : fr.off+frameHeader]
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		fr.off++
		return Frame{}, fmt.Errorf("%w: %02x%02x", ErrBadFrameMagic, hdr[0], hdr[1])
	}
	typ := hdr[2]
	limit, ok := frameLimit(typ)
	if !ok {
		fr.off++
		return Frame{}, fmt.Errorf("%w: 0x%02x", ErrBadFrameType, typ)
	}
	n := binary.BigEndian.Uint32(hdr[3:])
	if n > limit {
		fr.off++
		return Frame{}, fmt.Errorf("%w: type 0x%02x header advertises %d bytes (limit %d)", ErrFrameTooBig, typ, n, limit)
	}
	size := frameHeader + int(n)
	if err := fr.fill(size); err != nil {
		return Frame{}, fr.truncated(err, fmt.Sprintf("netflow: frame payload truncated: type 0x%02x advertises %d bytes but the stream carries %d",
			typ, n, fr.end-fr.off-frameHeader))
	}
	payload := fr.buf[fr.off+frameHeader : fr.off+size : fr.off+size]
	fr.off += size
	return Frame{Type: typ, Payload: payload}, nil
}

// truncated reports a frame the source ended inside, discarding its
// bytes; any other error passes through as the transport's.
func (fr *FrameReader) truncated(err error, what string) error {
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		return err
	}
	fr.off = fr.end
	return fmt.Errorf("%s: %w", what, io.ErrUnexpectedEOF)
}

// Resync scans forward for the next plausible frame start: "NF", a
// known frame type, and a payload length within that type's limit. It
// positions the
// reader so the following Next parses from that candidate, and returns
// the byte count discarded by the scan. io.EOF means the source ended
// with no further plausible frame; the candidate itself is NOT
// validated beyond its header, so a fake "NF" inside payload garbage
// simply fails the next Next/decode and can be resynced past again —
// each round discards at least one byte, so the scan always terminates.
func (fr *FrameReader) Resync() (skipped int64, err error) {
	for {
		for ; fr.end-fr.off >= frameHeader; fr.off++ {
			w := fr.buf[fr.off:]
			if w[0] == frameMagic0 && w[1] == frameMagic1 {
				if limit, ok := frameLimit(w[2]); ok && binary.BigEndian.Uint32(w[3:]) <= limit {
					return skipped, nil
				}
			}
			skipped++
		}
		if err := fr.fill(frameHeader); err != nil {
			if err == io.EOF {
				skipped += int64(fr.end - fr.off)
				fr.off = fr.end
			}
			return skipped, err
		}
	}
}

// DecodeV5Strict is DecodeV5 for UDP datagrams, where the datagram
// already delimits the packet: trailing bytes beyond the advertised
// record count are corruption, not the next packet, and are rejected
// with a descriptive error.
func DecodeV5Strict(pkt []byte) (V5Header, []Record, error) {
	return DecodeV5StrictInto(pkt, nil)
}

// DecodeV5StrictInto is DecodeV5Strict appending onto a recycled
// scratch slice, allocation-free on the hot path.
func DecodeV5StrictInto(pkt []byte, dst []Record) (V5Header, []Record, error) {
	base := len(dst)
	h, records, err := DecodeV5Into(pkt, dst)
	if err != nil {
		return h, records, err
	}
	if want := v5HeaderLen + (len(records)-base)*v5RecordLen; len(pkt) != want {
		return V5Header{}, nil, fmt.Errorf("%w: header advertises %d records (%d bytes) but the datagram carries %d bytes",
			ErrV5Trailing, len(records)-base, want, len(pkt))
	}
	return h, records, nil
}

// --- Sampling-rate advertisement ---------------------------------------

// v5 carries the sampling configuration in a 16-bit field: the top two
// bits are the mode (01 = packet sampling) and the low 14 bits the
// interval. PackSamplingInterval/SamplingRate convert between that field
// and the simulation's 1:N rate so the collector can restore volume
// estimates from the wire alone.

// MaxSamplingRate is the largest rate the 14-bit interval field can
// advertise.
const MaxSamplingRate = 1<<14 - 1

// PackSamplingInterval encodes rate for a V5Header. Rates 0 and 1 (no
// sampling) encode as 0.
func PackSamplingInterval(rate uint32) (uint16, error) {
	if rate <= 1 {
		return 0, nil
	}
	if rate > MaxSamplingRate {
		return 0, fmt.Errorf("netflow: sampling rate 1:%d exceeds v5's 14-bit interval field (max 1:%d)", rate, MaxSamplingRate)
	}
	return uint16(1<<14 | rate), nil
}

// SamplingRate decodes the header's advertised rate (1 = unsampled).
func (h V5Header) SamplingRate() uint32 {
	rate := uint32(h.SamplingInterval & MaxSamplingRate)
	if rate <= 1 {
		return 1
	}
	return rate
}
