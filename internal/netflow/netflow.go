// Package netflow implements the flow-export substrate of the ISP vantage
// point (Section 5.1): the framed stream transport and its columnar
// dictionary encoding (what the simulated ISP exports), plus decoders
// for the formats real routers send — NetFlow v5, v9 and IPFIX.
package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"
)

// IP protocol numbers used by the study.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Record is one unidirectional flow record as the collector stores it.
type Record struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Proto            uint8
	// Bytes and Packets are the *sampled* counters; multiply by the
	// sampling rate for volume estimates.
	Bytes   uint64
	Packets uint64
	// Start is the flow start time (hour resolution in the simulation).
	Start time.Time
}

// IsV4 reports whether both endpoints are IPv4.
func (r Record) IsV4() bool {
	return (r.Src.Is4() || r.Src.Is4In6()) && (r.Dst.Is4() || r.Dst.Is4In6())
}

// --- NetFlow v5 wire format -------------------------------------------

// V5 packet layout: 24-byte header + up to 30 48-byte records.
const (
	v5Version    = 5
	v5HeaderLen  = 24
	v5RecordLen  = 48
	V5MaxRecords = 30
)

// Codec errors.
var (
	ErrNotV5       = errors.New("netflow: not a v5 packet")
	ErrV5TooMany   = errors.New("netflow: more than 30 records per v5 packet")
	ErrV5Truncated = errors.New("netflow: truncated v5 packet")
	ErrV5NeedsV4   = errors.New("netflow: v5 can only carry IPv4 flows")
	// ErrV5Trailing marks a v5 datagram longer than its record count
	// advertises — corruption under strict decoding.
	ErrV5Trailing = errors.New("netflow: v5 datagram length mismatch")
)

// V5Header is the exported packet header.
type V5Header struct {
	SysUptime        uint32
	UnixSecs         uint32
	UnixNsecs        uint32
	FlowSequence     uint32
	EngineType       uint8
	EngineID         uint8
	SamplingInterval uint16 // low 14 bits; top 2 bits are the mode
}

// EncodeV5Clamped serializes records into one v5 packet, with the
// lossiness made visible: clamped counts the Bytes/Packets counters that
// exceeded v5's 32-bit fields and were saturated to 0xFFFFFFFF.
func EncodeV5Clamped(h V5Header, records []Record) (pkt []byte, clamped int, err error) {
	if len(records) > V5MaxRecords {
		return nil, 0, ErrV5TooMany
	}
	// The codec only writes the non-zero fields and relies on make to
	// zero the rest (nexthop, ifindexes, AS numbers, masks, padding).
	buf := make([]byte, v5HeaderLen+len(records)*v5RecordLen)
	be := binary.BigEndian
	be.PutUint16(buf[0:], v5Version)
	be.PutUint16(buf[2:], uint16(len(records)))
	be.PutUint32(buf[4:], h.SysUptime)
	be.PutUint32(buf[8:], h.UnixSecs)
	be.PutUint32(buf[12:], h.UnixNsecs)
	be.PutUint32(buf[16:], h.FlowSequence)
	buf[20] = h.EngineType
	buf[21] = h.EngineID
	be.PutUint16(buf[22:], h.SamplingInterval)

	for i, r := range records {
		if !r.IsV4() {
			return nil, clamped, ErrV5NeedsV4
		}
		off := v5HeaderLen + i*v5RecordLen
		src := r.Src.Unmap().As4()
		dst := r.Dst.Unmap().As4()
		copy(buf[off:], src[:])
		copy(buf[off+4:], dst[:])
		// nexthop (4B), input/output ifindex (2B each) stay zero.
		if r.Packets > 0xFFFFFFFF {
			clamped++
		}
		if r.Bytes > 0xFFFFFFFF {
			clamped++
		}
		be.PutUint32(buf[off+16:], clamp32(r.Packets))
		be.PutUint32(buf[off+20:], clamp32(r.Bytes))
		first := uint32(r.Start.Unix()) // sysuptime-relative in real kit
		be.PutUint32(buf[off+24:], first)
		be.PutUint32(buf[off+28:], first)
		be.PutUint16(buf[off+32:], r.SrcPort)
		be.PutUint16(buf[off+34:], r.DstPort)
		// pad(1), tcp_flags(1)
		buf[off+38] = r.Proto
		// tos, src_as, dst_as, masks, pad: zero.
	}
	return buf, clamped, nil
}

// DecodeV5Into parses one v5 packet, appending onto dst — pass a recycled
// scratch slice (dst[:0]) and the per-packet record allocation
// disappears from the hot ingest loop.
func DecodeV5Into(pkt []byte, dst []Record) (V5Header, []Record, error) {
	if len(pkt) < v5HeaderLen {
		return V5Header{}, nil, ErrV5Truncated
	}
	be := binary.BigEndian
	if be.Uint16(pkt[0:]) != v5Version {
		return V5Header{}, nil, ErrNotV5
	}
	count := int(be.Uint16(pkt[2:]))
	if count > V5MaxRecords {
		return V5Header{}, nil, ErrV5TooMany
	}
	if want := v5HeaderLen + count*v5RecordLen; len(pkt) < want {
		return V5Header{}, nil, fmt.Errorf("%w: header advertises %d records (%d bytes) but packet carries %d bytes",
			ErrV5Truncated, count, want, len(pkt))
	}
	h := V5Header{
		SysUptime:        be.Uint32(pkt[4:]),
		UnixSecs:         be.Uint32(pkt[8:]),
		UnixNsecs:        be.Uint32(pkt[12:]),
		FlowSequence:     be.Uint32(pkt[16:]),
		EngineType:       pkt[20],
		EngineID:         pkt[21],
		SamplingInterval: be.Uint16(pkt[22:]),
	}
	for i := 0; i < count; i++ {
		off := v5HeaderLen + i*v5RecordLen
		var src, da [4]byte
		copy(src[:], pkt[off:])
		copy(da[:], pkt[off+4:])
		dst = append(dst, Record{
			Src:     netip.AddrFrom4(src),
			Dst:     netip.AddrFrom4(da),
			Packets: uint64(be.Uint32(pkt[off+16:])),
			Bytes:   uint64(be.Uint32(pkt[off+20:])),
			Start:   time.Unix(int64(be.Uint32(pkt[off+24:])), 0).UTC(),
			SrcPort: be.Uint16(pkt[off+32:]),
			DstPort: be.Uint16(pkt[off+34:]),
			Proto:   pkt[off+38],
		})
	}
	return h, dst, nil
}

func clamp32(v uint64) uint32 {
	if v > 0xFFFFFFFF {
		return 0xFFFFFFFF
	}
	return uint32(v)
}
