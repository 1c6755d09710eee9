package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
)

// Columnar dictionary transport: the frame types below carry a flow
// feed with every address replaced by a dense per-stream dictionary ID,
// so the collector's hot loop never materializes a netip.Addr. It is
// the only encoding the simulated ISP exports. A dictionary stream is:
//
//	FrameHello        once, first: protocol version, the stream's
//	                  sampling rate, and the hour epoch every batch
//	                  frame's hour column is relative to.
//	FrameLineDict     incremental line-address dictionary deltas: a
//	                  base ID plus the addresses for IDs base..base+n-1.
//	                  Entries are emitted immediately before first use.
//	FrameBackendDict  same, for backend-side addresses.
//	FrameBatch        a struct-of-arrays run of flow rows carrying
//	                  dictionary IDs, relative hours, and full-width
//	                  64-bit counters (nothing is clamped to v5's 32-bit
//	                  fields, so dictionary streams never saturate).
//	FrameTempl        one verbatim NetFlow v9 or IPFIX datagram, so
//	                  foreign templated feeds can ride the same framed
//	                  stream transports and fault policies.
//
// FrameFlush keeps its meaning: one subscriber line's batch is
// complete. Foreign FrameV5/FrameV6 frames may share a stream with
// dictionary frames; the collector decodes both.
const (
	FrameHello       = 0x01
	FrameLineDict    = 0x02
	FrameBackendDict = 0x03
	FrameBatch       = 0x04
	FrameTempl       = 0x09
)

// helloVersion is the dictionary-protocol version FrameHello carries.
const helloVersion = 1

// batchRowLen is one FrameBatch row's wire size: line ID (4) + backend
// ID (4) + flags (1) + hour (2) + port (2) + proto (1) + bytes (8) +
// packets (8).
const batchRowLen = 30

// MaxBatchRecords is the row count AppendBatchFrames splits at — well
// under MaxFramePayload so a single damaged frame loses a bounded run.
const MaxBatchRecords = 8192

// ErrBadPayload marks a frame whose envelope was intact but whose
// payload does not parse as its type demands. Like a failed v5 decode,
// it is a per-frame fault: DropFrame policies discard the frame without
// a resync scan.
var ErrBadPayload = errors.New("netflow: malformed frame payload")

// knownFrameType reports whether t is a frame type this package can
// decode — the whitelist Next and Resync validate candidate headers
// against.
func knownFrameType(t byte) bool {
	switch t {
	case FrameV5, FrameV6, FrameFlush, FrameHello, FrameLineDict, FrameBackendDict, FrameBatch, FrameTempl:
		return true
	}
	return false
}

// RecordBatch is a struct-of-arrays run of flow rows — the decoded form
// of FrameBatch, and the unit flows.ShardPartial.IngestBatch folds. All
// columns share one length. Semantics of two columns depend on which
// side holds the batch: on the wire Hour is hours since the stream's
// FrameHello epoch and Bytes/Packets are sampled counters; the
// collector rebases Hour to study hours (negative = outside the study)
// and scales the counters in place after decoding.
type RecordBatch struct {
	Line    []uint32
	Backend []uint32
	Down    []bool
	Hour    []int32
	Port    []uint16
	Proto   []uint8
	Bytes   []uint64
	Packets []uint64
}

// Len returns the row count.
func (b *RecordBatch) Len() int { return len(b.Line) }

// Reset empties the batch, keeping capacity.
func (b *RecordBatch) Reset() { b.Truncate(0) }

// Truncate drops rows at and beyond n, keeping capacity.
func (b *RecordBatch) Truncate(n int) {
	b.Line = b.Line[:n]
	b.Backend = b.Backend[:n]
	b.Down = b.Down[:n]
	b.Hour = b.Hour[:n]
	b.Port = b.Port[:n]
	b.Proto = b.Proto[:n]
	b.Bytes = b.Bytes[:n]
	b.Packets = b.Packets[:n]
}

// Slice returns rows [lo, hi) as a batch sharing b's columns, capped
// so an append to it cannot overwrite b's later rows.
func (b *RecordBatch) Slice(lo, hi int) RecordBatch {
	return RecordBatch{
		Line:    b.Line[lo:hi:hi],
		Backend: b.Backend[lo:hi:hi],
		Down:    b.Down[lo:hi:hi],
		Hour:    b.Hour[lo:hi:hi],
		Port:    b.Port[lo:hi:hi],
		Proto:   b.Proto[lo:hi:hi],
		Bytes:   b.Bytes[lo:hi:hi],
		Packets: b.Packets[lo:hi:hi],
	}
}

// Append adds one row.
func (b *RecordBatch) Append(line, backend uint32, down bool, hour int32, port uint16, proto uint8, bytes, packets uint64) {
	b.Line = append(b.Line, line)
	b.Backend = append(b.Backend, backend)
	b.Down = append(b.Down, down)
	b.Hour = append(b.Hour, hour)
	b.Port = append(b.Port, port)
	b.Proto = append(b.Proto, proto)
	b.Bytes = append(b.Bytes, bytes)
	b.Packets = append(b.Packets, packets)
}

// AppendBatch appends src's rows.
func (b *RecordBatch) AppendBatch(src *RecordBatch) {
	b.Line = append(b.Line, src.Line...)
	b.Backend = append(b.Backend, src.Backend...)
	b.Down = append(b.Down, src.Down...)
	b.Hour = append(b.Hour, src.Hour...)
	b.Port = append(b.Port, src.Port...)
	b.Proto = append(b.Proto, src.Proto...)
	b.Bytes = append(b.Bytes, src.Bytes...)
	b.Packets = append(b.Packets, src.Packets...)
}

// grow extends every column by n zero rows and returns the first new
// row's index.
func (b *RecordBatch) grow(n int) int {
	at := len(b.Line)
	b.Line = append(b.Line, make([]uint32, n)...)
	b.Backend = append(b.Backend, make([]uint32, n)...)
	b.Down = append(b.Down, make([]bool, n)...)
	b.Hour = append(b.Hour, make([]int32, n)...)
	b.Port = append(b.Port, make([]uint16, n)...)
	b.Proto = append(b.Proto, make([]uint8, n)...)
	b.Bytes = append(b.Bytes, make([]uint64, n)...)
	b.Packets = append(b.Packets, make([]uint64, n)...)
	return at
}

// --- Encoding ----------------------------------------------------------

// AppendHelloFrame appends a FrameHello announcing the stream's
// sampling rate (0 normalizes to 1) and the unix-seconds epoch batch
// hours are relative to.
func AppendHelloFrame(dst []byte, rate uint32, epoch int64) []byte {
	if rate == 0 {
		rate = 1
	}
	dst, start := beginFrame(dst, FrameHello)
	dst = append(dst, helloVersion)
	dst = binary.BigEndian.AppendUint32(dst, rate)
	dst = binary.BigEndian.AppendUint64(dst, uint64(epoch))
	dst, _ = endFrame(dst, start) // fixed 13-byte payload, never oversize
	return dst
}

// AppendDictFrame appends one dictionary delta (typ is FrameLineDict or
// FrameBackendDict): addrs become IDs base..base+len(addrs)-1. Entries
// are encoded as a family byte (4 or 6) plus the 4- or 16-byte address.
func AppendDictFrame(dst []byte, typ byte, base uint32, addrs []netip.Addr) ([]byte, error) {
	if typ != FrameLineDict && typ != FrameBackendDict {
		return nil, fmt.Errorf("netflow: AppendDictFrame: type 0x%02x is not a dictionary frame", typ)
	}
	dst, start := beginFrame(dst, typ)
	dst = binary.BigEndian.AppendUint32(dst, base)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(addrs)))
	for _, a := range addrs {
		if a.Is4() || a.Is4In6() {
			b := a.Unmap().As4()
			dst = append(dst, famV4)
			dst = append(dst, b[:]...)
		} else {
			b := a.As16()
			dst = append(dst, famV6)
			dst = append(dst, b[:]...)
		}
	}
	return endFrame(dst, start)
}

// AppendBatchFrames appends the batch as one or more FrameBatch frames,
// splitting at MaxBatchRecords rows; frames reports how many were
// emitted. Hour values must fit the 16-bit wire column (epoch-relative
// and non-negative).
func AppendBatchFrames(dst []byte, b *RecordBatch) (out []byte, frames int, err error) {
	for lo := 0; lo < b.Len(); lo += MaxBatchRecords {
		hi := min(lo+MaxBatchRecords, b.Len())
		dst, err = appendBatchFrame(dst, b, lo, hi)
		if err != nil {
			return nil, frames, err
		}
		frames++
	}
	return dst, frames, nil
}

// appendBatchFrame encodes rows [lo, hi) as one FrameBatch.
func appendBatchFrame(dst []byte, b *RecordBatch, lo, hi int) ([]byte, error) {
	n := hi - lo
	dst, start := beginFrame(dst, FrameBatch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	for _, v := range b.Line[lo:hi] {
		dst = binary.BigEndian.AppendUint32(dst, v)
	}
	for _, v := range b.Backend[lo:hi] {
		dst = binary.BigEndian.AppendUint32(dst, v)
	}
	for _, v := range b.Down[lo:hi] {
		var f byte
		if v {
			f = 1
		}
		dst = append(dst, f)
	}
	for _, v := range b.Hour[lo:hi] {
		if v < 0 || v > 0xFFFF {
			return nil, fmt.Errorf("netflow: batch hour %d outside the 16-bit wire column", v)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(v))
	}
	for _, v := range b.Port[lo:hi] {
		dst = binary.BigEndian.AppendUint16(dst, v)
	}
	dst = append(dst, b.Proto[lo:hi]...)
	for _, v := range b.Bytes[lo:hi] {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	for _, v := range b.Packets[lo:hi] {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	return endFrame(dst, start)
}

// --- Decoding ----------------------------------------------------------

// DecodeHelloPayload parses a FrameHello payload.
func DecodeHelloPayload(p []byte) (rate uint32, epoch int64, err error) {
	if len(p) != 13 {
		return 0, 0, fmt.Errorf("%w: hello payload is %d bytes, want 13", ErrBadPayload, len(p))
	}
	if p[0] != helloVersion {
		return 0, 0, fmt.Errorf("%w: hello version %d, want %d", ErrBadPayload, p[0], helloVersion)
	}
	rate = binary.BigEndian.Uint32(p[1:])
	if rate == 0 {
		return 0, 0, fmt.Errorf("%w: hello advertises sampling rate 0", ErrBadPayload)
	}
	epoch = int64(binary.BigEndian.Uint64(p[5:]))
	return rate, epoch, nil
}

// DecodeDictPayload parses a dictionary-delta payload, appending the
// entries onto dst (pass a recycled slice to avoid allocation).
func DecodeDictPayload(p []byte, dst []netip.Addr) (base uint32, addrs []netip.Addr, err error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("%w: dict payload is %d bytes, want >= 8", ErrBadPayload, len(p))
	}
	base = binary.BigEndian.Uint32(p)
	count := binary.BigEndian.Uint32(p[4:])
	p = p[8:]
	for i := uint32(0); i < count; i++ {
		if len(p) == 0 {
			return 0, nil, fmt.Errorf("%w: dict payload ends after %d of %d entries", ErrBadPayload, i, count)
		}
		var alen int
		switch p[0] {
		case famV4:
			alen = 4
		case famV6:
			alen = 16
		default:
			return 0, nil, fmt.Errorf("%w: dict entry family %d", ErrBadPayload, p[0])
		}
		if len(p) < 1+alen {
			return 0, nil, fmt.Errorf("%w: dict entry truncated: family %d needs %d bytes, payload has %d", ErrBadPayload, p[0], alen, len(p)-1)
		}
		if alen == 4 {
			dst = append(dst, netip.AddrFrom4([4]byte(p[1:5])))
		} else {
			dst = append(dst, netip.AddrFrom16([16]byte(p[1:17])))
		}
		p = p[1+alen:]
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("%w: dict payload carries %d trailing bytes", ErrBadPayload, len(p))
	}
	return base, dst, nil
}

// DecodeBatchPayload parses a FrameBatch payload, appending its rows
// onto b. Hour lands as the raw epoch-relative wire value; counters
// land sampled and unscaled — the collector rebases and scales in
// place. On error b is untouched.
func DecodeBatchPayload(p []byte, b *RecordBatch) error {
	if len(p) < 4 {
		return fmt.Errorf("%w: batch payload is %d bytes, want >= 4", ErrBadPayload, len(p))
	}
	n := int(binary.BigEndian.Uint32(p))
	if want := 4 + n*batchRowLen; len(p) != want {
		return fmt.Errorf("%w: batch advertises %d rows (%d bytes) but payload carries %d bytes", ErrBadPayload, n, want, len(p))
	}
	at := b.grow(n)
	p = p[4:]
	for i := 0; i < n; i++ {
		b.Line[at+i] = binary.BigEndian.Uint32(p[i*4:])
	}
	p = p[n*4:]
	for i := 0; i < n; i++ {
		b.Backend[at+i] = binary.BigEndian.Uint32(p[i*4:])
	}
	p = p[n*4:]
	for i := 0; i < n; i++ {
		b.Down[at+i] = p[i]&1 != 0
	}
	p = p[n:]
	for i := 0; i < n; i++ {
		b.Hour[at+i] = int32(binary.BigEndian.Uint16(p[i*2:]))
	}
	p = p[n*2:]
	for i := 0; i < n; i++ {
		b.Port[at+i] = binary.BigEndian.Uint16(p[i*2:])
	}
	p = p[n*2:]
	copy(b.Proto[at:], p[:n])
	p = p[n:]
	for i := 0; i < n; i++ {
		b.Bytes[at+i] = binary.BigEndian.Uint64(p[i*8:])
	}
	p = p[n*8:]
	for i := 0; i < n; i++ {
		b.Packets[at+i] = binary.BigEndian.Uint64(p[i*8:])
	}
	return nil
}

// --- Zero-copy frame source --------------------------------------------

// BytesFrameReader parses frames from an in-memory byte slice — the
// mmap replay path. Frame payloads alias the underlying data (zero
// copies); error and Resync semantics mirror FrameReader's, so the
// collector's fault policies compose identically over mapped files.
type BytesFrameReader struct {
	data []byte
	off  int
}

// NewBytesFrameReader returns a reader over data.
func NewBytesFrameReader(data []byte) *BytesFrameReader {
	return &BytesFrameReader{data: data}
}

// Next parses one frame; io.EOF signals a clean end on a frame
// boundary. The returned payload aliases the reader's data. After a
// corrupt-envelope error the reader sits one byte past the bad header's
// start (mirroring FrameReader's stash discipline), so Resync cannot
// re-find the rejected candidate.
func (r *BytesFrameReader) Next() (Frame, error) {
	rem := len(r.data) - r.off
	if rem == 0 {
		return Frame{}, io.EOF
	}
	if rem < frameHeader {
		r.off = len(r.data)
		return Frame{}, fmt.Errorf("netflow: frame header truncated: %w", io.ErrUnexpectedEOF)
	}
	hdr := r.data[r.off : r.off+frameHeader]
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		r.off++
		return Frame{}, fmt.Errorf("%w: %02x%02x", ErrBadFrameMagic, hdr[0], hdr[1])
	}
	typ := hdr[2]
	if !knownFrameType(typ) {
		r.off++
		return Frame{}, fmt.Errorf("%w: 0x%02x", ErrBadFrameType, typ)
	}
	n := binary.BigEndian.Uint32(hdr[3:])
	if n > MaxFramePayload {
		r.off++
		return Frame{}, fmt.Errorf("%w: header advertises %d bytes (limit %d)", ErrFrameTooBig, n, MaxFramePayload)
	}
	if rem < frameHeader+int(n) {
		got := rem - frameHeader
		r.off = len(r.data)
		return Frame{}, fmt.Errorf("netflow: frame payload truncated: type 0x%02x advertises %d bytes but the data carries %d: %w",
			typ, n, got, io.ErrUnexpectedEOF)
	}
	payload := r.data[r.off+frameHeader : r.off+frameHeader+int(n)]
	r.off += frameHeader + int(n)
	return Frame{Type: typ, Payload: payload}, nil
}

// Resync scans forward for the next plausible frame header, positioning
// the reader on it and returning the bytes discarded. io.EOF means no
// further candidate exists.
func (r *BytesFrameReader) Resync() (skipped int64, err error) {
	for i := r.off; i+frameHeader <= len(r.data); i++ {
		if r.data[i] != frameMagic0 || r.data[i+1] != frameMagic1 {
			continue
		}
		if !knownFrameType(r.data[i+2]) {
			continue
		}
		if binary.BigEndian.Uint32(r.data[i+3:]) > MaxFramePayload {
			continue
		}
		skipped = int64(i - r.off)
		r.off = i
		return skipped, nil
	}
	skipped = int64(len(r.data) - r.off)
	r.off = len(r.data)
	return skipped, io.EOF
}
