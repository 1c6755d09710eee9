// Package coap implements the RFC 7252 CoAP message codec and the
// discovery responder the simulated servers answer with. Several
// providers in Table 1 expose CoAP endpoints, frequently on non-standard
// ports (5682, 5684, 5686) — the port-usage analysis in Section 5.5
// depends on exercising those paths, and the scanner uses a GET
// /.well-known/core probe to fingerprint them.
package coap

import (
	"errors"
	"fmt"
	"strings"
)

// MsgType is the CoAP message type (CON/NON/ACK/RST).
type MsgType uint8

// Message types (RFC 7252 §3).
const (
	Confirmable     MsgType = 0
	NonConfirmable  MsgType = 1
	Acknowledgement MsgType = 2
	Reset           MsgType = 3
)

// Code is the CoAP code byte: class in the top 3 bits, detail below.
type Code uint8

// MakeCode builds a Code from its dotted class.detail form.
func MakeCode(class, detail uint8) Code { return Code(class<<5 | detail&0x1F) }

// Request and response codes used by the simulation.
var (
	CodeGET      = MakeCode(0, 1)
	CodeContent  = MakeCode(2, 5)
	CodeNotFound = MakeCode(4, 4)
)

// String renders the dotted form, e.g. "2.05".
func (c Code) String() string { return fmt.Sprintf("%d.%02d", c>>5, c&0x1F) }

// Option numbers used by the study's probes.
const (
	OptUriPath       = 11
	OptContentFormat = 12
)

// Option is one CoAP option instance.
type Option struct {
	Number uint16
	Value  []byte
}

// Message is a CoAP message.
type Message struct {
	Type      MsgType
	Code      Code
	MessageID uint16
	Token     []byte
	Options   []Option
	Payload   []byte
}

// Codec errors.
var (
	ErrShort        = errors.New("coap: message too short")
	ErrBadVersion   = errors.New("coap: unsupported version")
	ErrBadToken     = errors.New("coap: token length > 8")
	ErrBadOption    = errors.New("coap: malformed option")
	ErrOptionsOrder = errors.New("coap: options not sorted by number")
)

const version = 1

// SetPath sets Uri-Path options from a slash-separated path.
func (m *Message) SetPath(path string) {
	for _, seg := range strings.Split(strings.Trim(path, "/"), "/") {
		if seg == "" {
			continue
		}
		m.Options = append(m.Options, Option{Number: OptUriPath, Value: []byte(seg)})
	}
}

// Path reassembles the Uri-Path options.
func (m *Message) Path() string {
	var segs []string
	for _, o := range m.Options {
		if o.Number == OptUriPath {
			segs = append(segs, string(o.Value))
		}
	}
	return "/" + strings.Join(segs, "/")
}

// Marshal encodes the message. Options must already be sorted by number
// (appending same-numbered options in order is fine).
func (m *Message) Marshal() ([]byte, error) {
	if len(m.Token) > 8 {
		return nil, ErrBadToken
	}
	buf := make([]byte, 0, 16+len(m.Payload))
	buf = append(buf, version<<6|byte(m.Type&0x3)<<4|byte(len(m.Token)))
	buf = append(buf, byte(m.Code))
	buf = append(buf, byte(m.MessageID>>8), byte(m.MessageID))
	buf = append(buf, m.Token...)

	prev := uint16(0)
	for _, o := range m.Options {
		if o.Number < prev {
			return nil, ErrOptionsOrder
		}
		delta := int(o.Number - prev)
		length := len(o.Value)
		dn, dext := splitOptVarint(delta)
		ln, lext := splitOptVarint(length)
		buf = append(buf, byte(dn)<<4|byte(ln))
		buf = append(buf, dext...)
		buf = append(buf, lext...)
		buf = append(buf, o.Value...)
		prev = o.Number
	}
	if len(m.Payload) > 0 {
		buf = append(buf, 0xFF)
		buf = append(buf, m.Payload...)
	}
	return buf, nil
}

// splitOptVarint maps a value to the option nibble + extension bytes.
func splitOptVarint(v int) (nibble int, ext []byte) {
	switch {
	case v < 13:
		return v, nil
	case v < 269:
		return 13, []byte{byte(v - 13)}
	default:
		v -= 269
		return 14, []byte{byte(v >> 8), byte(v)}
	}
}

// readOptVarint decodes the nibble + extension bytes at data[i:].
func readOptVarint(nibble int, data []byte, i int) (val, next int, err error) {
	switch nibble {
	case 13:
		if i >= len(data) {
			return 0, 0, ErrBadOption
		}
		return int(data[i]) + 13, i + 1, nil
	case 14:
		if i+1 >= len(data) {
			return 0, 0, ErrBadOption
		}
		return int(data[i])<<8 | int(data[i+1]) + 269, i + 2, nil
	case 15:
		return 0, 0, ErrBadOption // reserved (payload marker misuse)
	default:
		return nibble, i, nil
	}
}

// Unmarshal decodes a CoAP message.
func Unmarshal(data []byte) (*Message, error) {
	if len(data) < 4 {
		return nil, ErrShort
	}
	if data[0]>>6 != version {
		return nil, ErrBadVersion
	}
	tkl := int(data[0] & 0x0F)
	if tkl > 8 {
		return nil, ErrBadToken
	}
	m := &Message{
		Type:      MsgType(data[0] >> 4 & 0x3),
		Code:      Code(data[1]),
		MessageID: uint16(data[2])<<8 | uint16(data[3]),
	}
	i := 4
	if len(data) < i+tkl {
		return nil, ErrShort
	}
	m.Token = append([]byte(nil), data[i:i+tkl]...)
	i += tkl

	prev := 0
	for i < len(data) {
		if data[i] == 0xFF {
			i++
			if i == len(data) {
				return nil, ErrBadOption // marker with empty payload is illegal
			}
			m.Payload = append([]byte(nil), data[i:]...)
			return m, nil
		}
		dn := int(data[i] >> 4)
		ln := int(data[i] & 0x0F)
		i++
		var delta, length int
		var err error
		delta, i, err = readOptVarint(dn, data, i)
		if err != nil {
			return nil, err
		}
		length, i, err = readOptVarint(ln, data, i)
		if err != nil {
			return nil, err
		}
		if i+length > len(data) {
			return nil, ErrBadOption
		}
		num := prev + delta
		if num > 0xFFFF {
			return nil, ErrBadOption
		}
		m.Options = append(m.Options, Option{Number: uint16(num), Value: append([]byte(nil), data[i:i+length]...)})
		prev = num
		i += length
	}
	return m, nil
}
