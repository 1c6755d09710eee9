// Package amqp implements the AMQP 1.0 connection bootstrap: the 8-byte
// protocol header negotiation and the frame envelope (size, doff, type,
// channel). Port 5671 (AMQPS) carries substantial IoT traffic in the
// paper's Figure 12c, and the scanner fingerprints brokers through the
// header exchange — a broker always answers a protocol header with its
// own, even when it then closes the connection.
package amqp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// ProtoID distinguishes the three AMQP 1.0 bootstrap variants.
type ProtoID byte

// ProtoAMQP is the plain AMQP protocol ID (AMQP 1.0 §2.2); TLS is 2 and
// SASL 3.
const ProtoAMQP ProtoID = 0

// Header is the 8-byte AMQP protocol header: "AMQP" + id + version.
type Header struct {
	ID       ProtoID
	Major    byte
	Minor    byte
	Revision byte
}

// V10 is the standard AMQP 1.0.0 header.
var V10 = Header{ID: ProtoAMQP, Major: 1, Minor: 0, Revision: 0}

// Codec errors.
var (
	ErrNotAMQP       = errors.New("amqp: not an AMQP protocol header")
	ErrFrameTooLarge = errors.New("amqp: frame exceeds negotiated max size")
	ErrBadDoff       = errors.New("amqp: data offset below minimum")
)

// Marshal encodes the header.
func (h Header) Marshal() []byte {
	return []byte{'A', 'M', 'Q', 'P', byte(h.ID), h.Major, h.Minor, h.Revision}
}

// String renders e.g. "AMQP(0) 1.0.0".
func (h Header) String() string {
	return fmt.Sprintf("AMQP(%d) %d.%d.%d", h.ID, h.Major, h.Minor, h.Revision)
}

// ParseHeader decodes an 8-byte protocol header.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < 8 || b[0] != 'A' || b[1] != 'M' || b[2] != 'Q' || b[3] != 'P' {
		return Header{}, ErrNotAMQP
	}
	return Header{ID: ProtoID(b[4]), Major: b[5], Minor: b[6], Revision: b[7]}, nil
}

// FrameType is the frame type octet.
type FrameType byte

// Frame is one AMQP frame: an 8-byte envelope plus opaque body (the
// performative encoding itself is out of scope; the simulation only
// needs the framing layer for fingerprinting and traffic shaping).
type Frame struct {
	Type    FrameType
	Channel uint16
	Body    []byte
}

// MaxFrameSize is the cap this implementation accepts.
const MaxFrameSize = 1 << 20

// Marshal encodes the frame with the minimum doff of 2.
func (f Frame) Marshal() []byte {
	size := 8 + len(f.Body)
	out := make([]byte, 0, size)
	out = append(out, byte(size>>24), byte(size>>16), byte(size>>8), byte(size))
	out = append(out, 2, byte(f.Type), byte(f.Channel>>8), byte(f.Channel))
	return append(out, f.Body...)
}

// ReadFrame reads one frame from r.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	size := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	doff := int(hdr[4])
	if doff < 2 {
		return Frame{}, ErrBadDoff
	}
	if size < doff*4 || size > MaxFrameSize {
		return Frame{}, ErrFrameTooLarge
	}
	f := Frame{Type: FrameType(hdr[5]), Channel: uint16(hdr[6])<<8 | uint16(hdr[7])}
	// Skip extended header bytes beyond the fixed 8.
	skip := doff*4 - 8
	rest := make([]byte, size-8)
	if _, err := io.ReadFull(r, rest); err != nil {
		return Frame{}, err
	}
	f.Body = rest[skip:]
	return f, nil
}

// ClientHello performs the client side of the protocol-header exchange:
// send our header, read the server's. This is the whole scanner probe.
func ClientHello(conn net.Conn, h Header, timeout time.Duration) (Header, error) {
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return Header{}, err
		}
		defer conn.SetDeadline(time.Time{})
	}
	if _, err := conn.Write(h.Marshal()); err != nil {
		return Header{}, err
	}
	var buf [8]byte
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return Header{}, err
	}
	return ParseHeader(buf[:])
}

// ServerHello performs the broker side: read the client header, answer
// with ours (the spec says a server answers with the protocol it
// supports, then MAY close if they differ).
func ServerHello(conn net.Conn, ours Header, timeout time.Duration) (Header, error) {
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return Header{}, err
		}
		defer conn.SetDeadline(time.Time{})
	}
	var buf [8]byte
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return Header{}, err
	}
	theirs, err := ParseHeader(buf[:])
	if err != nil {
		return Header{}, err
	}
	if _, err := conn.Write(ours.Marshal()); err != nil {
		return theirs, err
	}
	return theirs, nil
}
