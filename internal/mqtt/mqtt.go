// Package mqtt implements the MQTT 3.1.1 wire protocol subset the study
// needs: the fixed header with its variable-length encoding, CONNECT /
// CONNACK / PUBLISH / SUBSCRIBE / SUBACK / PINGREQ / PINGRESP / DISCONNECT
// packets, and small client/broker handshake helpers.
//
// MQTT is the protocol every provider in Table 1 claims to support; the
// scanner (internal/zgrab) uses the CONNECT/CONNACK exchange as its
// protocol probe, and internal/iotserver terminates broker-side
// handshakes. Decoding follows the gopacket DecodingLayer discipline:
// packets decode into caller structs without retaining the input buffer.
package mqtt

import (
	"errors"
	"fmt"
	"io"
)

// PacketType is the MQTT control packet type (high nibble of byte 0).
type PacketType byte

// Control packet types (MQTT 3.1.1 §2.2.1).
const (
	CONNECT     PacketType = 1
	CONNACK     PacketType = 2
	PUBLISH     PacketType = 3
	PUBACK      PacketType = 4
	SUBSCRIBE   PacketType = 8
	SUBACK      PacketType = 9
	UNSUBSCRIBE PacketType = 10
	UNSUBACK    PacketType = 11
	PINGREQ     PacketType = 12
	PINGRESP    PacketType = 13
	DISCONNECT  PacketType = 14
)

// String names the packet type.
func (t PacketType) String() string {
	names := map[PacketType]string{
		CONNECT: "CONNECT", CONNACK: "CONNACK", PUBLISH: "PUBLISH",
		PUBACK: "PUBACK", SUBSCRIBE: "SUBSCRIBE", SUBACK: "SUBACK",
		UNSUBSCRIBE: "UNSUBSCRIBE", UNSUBACK: "UNSUBACK",
		PINGREQ: "PINGREQ", PINGRESP: "PINGRESP", DISCONNECT: "DISCONNECT",
	}
	if n, ok := names[t]; ok {
		return n
	}
	return fmt.Sprintf("TYPE%d", byte(t))
}

// ConnackCode is the CONNACK return code.
type ConnackCode byte

// CONNACK return codes (MQTT 3.1.1 §3.2.2.3).
const (
	ConnAccepted          ConnackCode = 0
	ConnRefusedVersion    ConnackCode = 1
	ConnRefusedIdentifier ConnackCode = 2
	ConnRefusedServer     ConnackCode = 3
	ConnRefusedBadAuth    ConnackCode = 4
	ConnRefusedNotAuth    ConnackCode = 5
)

// String names the return code.
func (c ConnackCode) String() string {
	switch c {
	case ConnAccepted:
		return "accepted"
	case ConnRefusedVersion:
		return "refused: unacceptable protocol version"
	case ConnRefusedIdentifier:
		return "refused: identifier rejected"
	case ConnRefusedServer:
		return "refused: server unavailable"
	case ConnRefusedBadAuth:
		return "refused: bad user name or password"
	case ConnRefusedNotAuth:
		return "refused: not authorized"
	default:
		return fmt.Sprintf("refused: code %d", byte(c))
	}
}

// Wire-format errors.
var (
	ErrMalformed       = errors.New("mqtt: malformed packet")
	ErrLengthOverflow  = errors.New("mqtt: remaining length exceeds 4 bytes")
	ErrPacketTooLarge  = errors.New("mqtt: packet exceeds reader limit")
	ErrWrongPacketType = errors.New("mqtt: unexpected packet type")
	ErrBadProtocol     = errors.New("mqtt: unsupported protocol name/level")
)

// FixedHeader is the 2-5 byte fixed header of every control packet.
type FixedHeader struct {
	Type  PacketType
	Flags byte
	// RemainingLength is the byte length of variable header + payload.
	RemainingLength int
}

// AppendRemainingLength appends the MQTT variable-length encoding of n
// (1-4 bytes, 7 bits per byte, continuation bit 0x80).
func AppendRemainingLength(b []byte, n int) ([]byte, error) {
	if n < 0 || n > 268435455 {
		return nil, ErrLengthOverflow
	}
	for {
		d := byte(n % 128)
		n /= 128
		if n > 0 {
			d |= 0x80
		}
		b = append(b, d)
		if n == 0 {
			return b, nil
		}
	}
}

// ReadRemainingLength decodes the variable-length remaining length from r.
func ReadRemainingLength(r io.ByteReader) (int, error) {
	mult := 1
	val := 0
	for i := 0; i < 4; i++ {
		d, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		val += int(d&0x7F) * mult
		if d&0x80 == 0 {
			return val, nil
		}
		mult *= 128
	}
	return 0, ErrLengthOverflow
}

// Connect is the CONNECT packet.
type Connect struct {
	ClientID     string
	Username     string
	Password     []byte
	KeepAlive    uint16
	CleanSession bool
	WillTopic    string
	WillMessage  []byte
	WillQoS      byte
	WillRetain   bool
}

// Connack is the CONNACK packet.
type Connack struct {
	SessionPresent bool
	Code           ConnackCode
}

// Publish is the PUBLISH packet.
type Publish struct {
	Topic    string
	Payload  []byte
	QoS      byte
	Retain   bool
	Dup      bool
	PacketID uint16 // present iff QoS > 0
}

// Subscribe is the SUBSCRIBE packet.
type Subscribe struct {
	PacketID uint16
	Topics   []TopicFilter
}

// TopicFilter pairs a filter with its requested QoS.
type TopicFilter struct {
	Filter string
	QoS    byte
}

// Suback is the SUBACK packet.
type Suback struct {
	PacketID uint16
	Codes    []byte // one per requested filter; 0x80 = failure
}

const protocolName = "MQTT"
const protocolLevel = 4 // 3.1.1

// AppendConnect serializes a CONNECT packet.
func (c *Connect) Append(b []byte) ([]byte, error) {
	var body []byte
	body = appendString(body, protocolName)
	body = append(body, protocolLevel)
	var flags byte
	if c.CleanSession {
		flags |= 0x02
	}
	if c.WillTopic != "" {
		flags |= 0x04
		flags |= (c.WillQoS & 0x3) << 3
		if c.WillRetain {
			flags |= 0x20
		}
	}
	if c.Username != "" {
		flags |= 0x80
	}
	if c.Password != nil {
		flags |= 0x40
	}
	body = append(body, flags)
	body = appendU16(body, c.KeepAlive)
	body = appendString(body, c.ClientID)
	if c.WillTopic != "" {
		body = appendString(body, c.WillTopic)
		body = appendBytes(body, c.WillMessage)
	}
	if c.Username != "" {
		body = appendString(body, c.Username)
	}
	if c.Password != nil {
		body = appendBytes(body, c.Password)
	}
	return appendPacket(b, CONNECT, 0, body)
}

// Append serializes a CONNACK packet.
func (c *Connack) Append(b []byte) ([]byte, error) {
	var body []byte
	var sp byte
	if c.SessionPresent {
		sp = 1
	}
	body = append(body, sp, byte(c.Code))
	return appendPacket(b, CONNACK, 0, body)
}

// Append serializes a PUBLISH packet.
func (p *Publish) Append(b []byte) ([]byte, error) {
	if p.QoS > 2 {
		return nil, ErrMalformed
	}
	var body []byte
	body = appendString(body, p.Topic)
	if p.QoS > 0 {
		body = appendU16(body, p.PacketID)
	}
	body = append(body, p.Payload...)
	var flags byte
	if p.Dup {
		flags |= 0x08
	}
	flags |= p.QoS << 1
	if p.Retain {
		flags |= 0x01
	}
	return appendPacket(b, PUBLISH, flags, body)
}

// Append serializes a SUBSCRIBE packet.
func (s *Subscribe) Append(b []byte) ([]byte, error) {
	if len(s.Topics) == 0 {
		return nil, ErrMalformed
	}
	var body []byte
	body = appendU16(body, s.PacketID)
	for _, tf := range s.Topics {
		body = appendString(body, tf.Filter)
		body = append(body, tf.QoS&0x3)
	}
	return appendPacket(b, SUBSCRIBE, 0x02, body) // reserved flags 0010
}

// Append serializes a SUBACK packet.
func (s *Suback) Append(b []byte) ([]byte, error) {
	var body []byte
	body = appendU16(body, s.PacketID)
	body = append(body, s.Codes...)
	return appendPacket(b, SUBACK, 0, body)
}

// AppendPingresp serializes a PINGRESP packet.
func AppendPingresp(b []byte) []byte { return append(b, byte(PINGRESP)<<4, 0) }

func appendPacket(b []byte, t PacketType, flags byte, body []byte) ([]byte, error) {
	b = append(b, byte(t)<<4|flags&0x0F)
	var err error
	b, err = AppendRemainingLength(b, len(body))
	if err != nil {
		return nil, err
	}
	return append(b, body...), nil
}

// Raw is one decoded-but-untyped control packet.
type Raw struct {
	Header FixedHeader
	Body   []byte
}

// Reader decodes control packets from a stream with a safety cap on
// packet size (scanners must not be decompressed-bombed by a hostile
// broker).
type Reader struct {
	r   io.Reader
	br  *byteReader
	max int
}

// NewReader wraps r; maxPacket caps the remaining length (0 = 1 MiB).
func NewReader(r io.Reader, maxPacket int) *Reader {
	if maxPacket <= 0 {
		maxPacket = 1 << 20
	}
	return &Reader{r: r, br: &byteReader{r: r}, max: maxPacket}
}

// Next reads one packet. The returned body is freshly allocated.
func (rd *Reader) Next() (Raw, error) {
	b0, err := rd.br.ReadByte()
	if err != nil {
		return Raw{}, err
	}
	rl, err := ReadRemainingLength(rd.br)
	if err != nil {
		return Raw{}, err
	}
	if rl > rd.max {
		return Raw{}, ErrPacketTooLarge
	}
	body := make([]byte, rl)
	if _, err := io.ReadFull(rd.r, body); err != nil {
		return Raw{}, err
	}
	return Raw{
		Header: FixedHeader{Type: PacketType(b0 >> 4), Flags: b0 & 0x0F, RemainingLength: rl},
		Body:   body,
	}, nil
}

// byteReader adapts an io.Reader to io.ByteReader without buffering past
// the bytes it is asked for (the body must stay in the stream).
type byteReader struct {
	r   io.Reader
	one [1]byte
}

func (b *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		return 0, err
	}
	return b.one[0], nil
}

// DecodeConnect parses a CONNECT body.
func DecodeConnect(raw Raw) (*Connect, error) {
	if raw.Header.Type != CONNECT {
		return nil, ErrWrongPacketType
	}
	body := raw.Body
	name, body, err := readString(body)
	if err != nil {
		return nil, err
	}
	if len(body) < 1 {
		return nil, ErrMalformed
	}
	level := body[0]
	body = body[1:]
	if name != protocolName || level != protocolLevel {
		return nil, ErrBadProtocol
	}
	if len(body) < 3 {
		return nil, ErrMalformed
	}
	flags := body[0]
	if flags&0x01 != 0 {
		return nil, ErrMalformed // reserved bit must be zero
	}
	c := &Connect{
		CleanSession: flags&0x02 != 0,
		KeepAlive:    uint16(body[1])<<8 | uint16(body[2]),
	}
	body = body[3:]
	c.ClientID, body, err = readString(body)
	if err != nil {
		return nil, err
	}
	if flags&0x04 != 0 { // will
		c.WillQoS = flags >> 3 & 0x3
		c.WillRetain = flags&0x20 != 0
		c.WillTopic, body, err = readString(body)
		if err != nil {
			return nil, err
		}
		c.WillMessage, body, err = readBytes(body)
		if err != nil {
			return nil, err
		}
	}
	if flags&0x80 != 0 {
		c.Username, body, err = readString(body)
		if err != nil {
			return nil, err
		}
	}
	if flags&0x40 != 0 {
		c.Password, body, err = readBytes(body)
		if err != nil {
			return nil, err
		}
	}
	if len(body) != 0 {
		return nil, ErrMalformed
	}
	return c, nil
}

// DecodeConnack parses a CONNACK body.
func DecodeConnack(raw Raw) (*Connack, error) {
	if raw.Header.Type != CONNACK {
		return nil, ErrWrongPacketType
	}
	if len(raw.Body) != 2 || raw.Body[0]&0xFE != 0 {
		return nil, ErrMalformed
	}
	return &Connack{SessionPresent: raw.Body[0]&1 != 0, Code: ConnackCode(raw.Body[1])}, nil
}

// DecodePublish parses a PUBLISH body.
func DecodePublish(raw Raw) (*Publish, error) {
	if raw.Header.Type != PUBLISH {
		return nil, ErrWrongPacketType
	}
	p := &Publish{
		Dup:    raw.Header.Flags&0x08 != 0,
		QoS:    raw.Header.Flags >> 1 & 0x3,
		Retain: raw.Header.Flags&0x01 != 0,
	}
	if p.QoS == 3 {
		return nil, ErrMalformed
	}
	var err error
	body := raw.Body
	p.Topic, body, err = readString(body)
	if err != nil {
		return nil, err
	}
	if p.QoS > 0 {
		if len(body) < 2 {
			return nil, ErrMalformed
		}
		p.PacketID = uint16(body[0])<<8 | uint16(body[1])
		body = body[2:]
	}
	p.Payload = append([]byte(nil), body...)
	return p, nil
}

// DecodeSubscribe parses a SUBSCRIBE body.
func DecodeSubscribe(raw Raw) (*Subscribe, error) {
	if raw.Header.Type != SUBSCRIBE {
		return nil, ErrWrongPacketType
	}
	if raw.Header.Flags != 0x02 {
		return nil, ErrMalformed
	}
	body := raw.Body
	if len(body) < 2 {
		return nil, ErrMalformed
	}
	s := &Subscribe{PacketID: uint16(body[0])<<8 | uint16(body[1])}
	body = body[2:]
	for len(body) > 0 {
		var filter string
		var err error
		filter, body, err = readString(body)
		if err != nil {
			return nil, err
		}
		if len(body) < 1 {
			return nil, ErrMalformed
		}
		s.Topics = append(s.Topics, TopicFilter{Filter: filter, QoS: body[0] & 0x3})
		body = body[1:]
	}
	if len(s.Topics) == 0 {
		return nil, ErrMalformed
	}
	return s, nil
}

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }

func appendString(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = appendU16(b, uint16(len(p)))
	return append(b, p...)
}

func readString(b []byte) (string, []byte, error) {
	p, rest, err := readBytes(b)
	return string(p), rest, err
}

func readBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 2 {
		return nil, nil, ErrMalformed
	}
	n := int(b[0])<<8 | int(b[1])
	if len(b) < 2+n {
		return nil, nil, ErrMalformed
	}
	out := append([]byte(nil), b[2:2+n]...)
	return out, b[2+n:], nil
}
