// Package dnsmsg implements the subset of the RFC 1035 DNS wire format the
// study needs: headers, questions, and A/AAAA/CNAME/NS/PTR/TXT/SOA resource
// records, with message-compression pointers on both encode and decode.
//
// The active-measurement part of the methodology (Section 3.3) performs
// daily DNS resolutions from three vantage points; this package is the wire
// substrate beneath internal/dnszone (the authoritative server) and the
// record types the DNS datasets carry. Parsing follows the gopacket discipline: decode
// into caller-owned structs, never retain the input buffer.
package dnsmsg

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Type is a DNS RR type.
type Type uint16

// Supported RR types.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is a DNS class; only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a response code.
type RCode uint8

// Response codes used by the simulation.
const (
	RCodeSuccess  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String names the rcode.
func (r RCode) String() string {
	switch r {
	case RCodeSuccess:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", uint8(r))
	}
}

// Header is the fixed 12-byte DNS header.
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
}

// Question is one query tuple.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// RR is a decoded resource record. Exactly one of the typed payload
// fields is meaningful, selected by Type.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	// A and AAAA payload.
	Addr netip.Addr
	// CNAME, NS, PTR payload.
	Target string
	// TXT payload.
	TXT []string
	// SOA payload.
	SOA *SOAData
}

// SOAData is the SOA RDATA.
type SOAData struct {
	MName   string
	RName   string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Message is a full DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// Common wire-format errors.
var (
	ErrShortMessage    = errors.New("dnsmsg: message too short")
	ErrBadName         = errors.New("dnsmsg: malformed domain name")
	ErrPointerLoop     = errors.New("dnsmsg: compression pointer loop")
	ErrTrailingGarbage = errors.New("dnsmsg: trailing bytes after message")
	ErrNameTooLong     = errors.New("dnsmsg: name exceeds 255 octets")
	ErrLabelTooLong    = errors.New("dnsmsg: label exceeds 63 octets")
)

// CanonicalName lower-cases a name and ensures a trailing dot, the
// normalized form used across the repository (DNSDB keys, zone lookups).
// Names that are already canonical — lowercase ASCII with a trailing dot,
// no whitespace — are returned unchanged without allocating; most names in
// the discovery hot path were canonicalized once at ingest.
func CanonicalName(name string) string {
	if isCanonical(name) {
		return name
	}
	n := strings.ToLower(strings.TrimSpace(name))
	if n == "" || n == "." {
		return "."
	}
	if !strings.HasSuffix(n, ".") {
		n += "."
	}
	return n
}

// isCanonical reports whether name is already in canonical form: non-empty
// lowercase ASCII ending in a dot, with no uppercase letters, whitespace,
// control characters, or non-ASCII bytes that would force the slow path
// (TrimSpace trims any Unicode whitespace, including \v and \f).
func isCanonical(name string) bool {
	if len(name) == 0 || name[len(name)-1] != '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'A' && c <= 'Z' || c >= 0x80 || c <= ' ' {
			return false
		}
	}
	return true
}

// Bucketable reports whether a RegisteredDomain result can serve as a
// suffix-index bucket key: it must carry at least two labels, because a
// single-label result ("com.") means the true registered domain of a
// longer matching name would include the label above it and land in a
// different bucket. Every consumer of the suffix indexes must gate on
// this — keep it next to RegisteredDomain so the two evolve together.
func Bucketable(rd string) bool { return strings.Count(rd, ".") >= 2 }

// RegisteredDomain returns the canonical last-two-label suffix of a name
// ("a.iot.eu-1.example.com" → "example.com."), the bucket key of the
// suffix indexes in internal/censys and internal/dnsdb. It is an eTLD+1
// approximation: good enough for bucketing because every provider pattern
// anchors on a fixed SLD whose own last two labels are stable. Names with
// fewer than two labels (or the root) are returned canonicalized whole.
func RegisteredDomain(name string) string {
	n := CanonicalName(name)
	if n == "." {
		return n
	}
	// Walk back past the trailing dot to find the start of the last two
	// labels.
	dots := 0
	for i := len(n) - 2; i >= 0; i-- {
		if n[i] == '.' {
			dots++
			if dots == 2 {
				return n[i+1:]
			}
		}
	}
	return n
}

// Append serializes m to buf (which may be nil) and returns the extended
// slice. Owner names of records and question names are compressed against
// previously written names.
func (m *Message) Append(buf []byte) ([]byte, error) {
	var flags uint16
	if m.Header.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Header.Opcode&0xF) << 11
	if m.Header.Authoritative {
		flags |= 1 << 10
	}
	if m.Header.Truncated {
		flags |= 1 << 9
	}
	if m.Header.RecursionDesired {
		flags |= 1 << 8
	}
	if m.Header.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.Header.RCode) & 0xF

	buf = appendU16(buf, m.Header.ID)
	buf = appendU16(buf, flags)
	buf = appendU16(buf, uint16(len(m.Questions)))
	buf = appendU16(buf, uint16(len(m.Answers)))
	buf = appendU16(buf, uint16(len(m.Authority)))
	buf = appendU16(buf, uint16(len(m.Additional)))

	comp := map[string]int{}
	var err error
	for _, q := range m.Questions {
		buf, err = appendName(buf, q.Name, comp)
		if err != nil {
			return nil, err
		}
		buf = appendU16(buf, uint16(q.Type))
		buf = appendU16(buf, uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			buf, err = appendRR(buf, rr, comp)
			if err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// Pack serializes m into a fresh buffer.
func (m *Message) Pack() ([]byte, error) { return m.Append(make([]byte, 0, 512)) }

func appendRR(buf []byte, rr RR, comp map[string]int) ([]byte, error) {
	var err error
	buf, err = appendName(buf, rr.Name, comp)
	if err != nil {
		return nil, err
	}
	buf = appendU16(buf, uint16(rr.Type))
	buf = appendU16(buf, uint16(rr.Class))
	buf = appendU32(buf, rr.TTL)
	// Reserve RDLENGTH and fill afterwards.
	lenAt := len(buf)
	buf = appendU16(buf, 0)
	start := len(buf)
	switch rr.Type {
	case TypeA:
		a := rr.Addr.Unmap()
		if !a.Is4() {
			return nil, fmt.Errorf("dnsmsg: A record for %s has non-IPv4 addr %v", rr.Name, rr.Addr)
		}
		b := a.As4()
		buf = append(buf, b[:]...)
	case TypeAAAA:
		if !rr.Addr.Is6() || rr.Addr.Is4In6() {
			return nil, fmt.Errorf("dnsmsg: AAAA record for %s has non-IPv6 addr %v", rr.Name, rr.Addr)
		}
		b := rr.Addr.As16()
		buf = append(buf, b[:]...)
	case TypeCNAME, TypeNS, TypePTR:
		// RFC 3597 discourages compressing RDATA names in new software;
		// write them uncompressed for interoperability, like modern
		// resolvers do.
		buf, err = appendName(buf, rr.Target, nil)
		if err != nil {
			return nil, err
		}
	case TypeTXT:
		for _, s := range rr.TXT {
			if len(s) > 255 {
				return nil, fmt.Errorf("dnsmsg: TXT segment exceeds 255 bytes")
			}
			buf = append(buf, byte(len(s)))
			buf = append(buf, s...)
		}
	case TypeSOA:
		if rr.SOA == nil {
			return nil, fmt.Errorf("dnsmsg: SOA record without payload")
		}
		buf, err = appendName(buf, rr.SOA.MName, nil)
		if err != nil {
			return nil, err
		}
		buf, err = appendName(buf, rr.SOA.RName, nil)
		if err != nil {
			return nil, err
		}
		buf = appendU32(buf, rr.SOA.Serial)
		buf = appendU32(buf, rr.SOA.Refresh)
		buf = appendU32(buf, rr.SOA.Retry)
		buf = appendU32(buf, rr.SOA.Expire)
		buf = appendU32(buf, rr.SOA.Minimum)
	default:
		return nil, fmt.Errorf("dnsmsg: cannot encode RR type %v", rr.Type)
	}
	rdlen := len(buf) - start
	buf[lenAt] = byte(rdlen >> 8)
	buf[lenAt+1] = byte(rdlen)
	return buf, nil
}

// appendName writes a possibly-compressed domain name. comp maps a
// canonical suffix to its offset in buf; pass nil to disable compression.
func appendName(buf []byte, name string, comp map[string]int) ([]byte, error) {
	n := CanonicalName(name)
	if n == "." {
		return append(buf, 0), nil
	}
	if len(n) > 255 {
		return nil, ErrNameTooLong
	}
	// Walk label boundaries in place: n is canonical ("a.b.c."), so every
	// label ends at a dot and n[i:] is the dotted suffix starting at label
	// i — a substring, so compression-map keys cost no allocation.
	for i := 0; i < len(n); {
		if comp != nil {
			suffix := n[i:]
			if off, ok := comp[suffix]; ok && off < 0x4000 {
				buf = appendU16(buf, uint16(off)|0xC000)
				return buf, nil
			}
			if len(buf) < 0x4000 {
				comp[suffix] = len(buf)
			}
		}
		j := strings.IndexByte(n[i:], '.')
		if j == 0 {
			return nil, ErrBadName
		}
		if j > 63 {
			return nil, ErrLabelTooLong
		}
		buf = append(buf, byte(j))
		buf = append(buf, n[i:i+j]...)
		i += j + 1
	}
	return append(buf, 0), nil
}

// Unpack parses a full message from wire. Trailing bytes are an error:
// messages arrive one per UDP datagram in this system.
func Unpack(wire []byte) (*Message, error) {
	if len(wire) < 12 {
		return nil, ErrShortMessage
	}
	var m Message
	m.Header.ID = u16(wire, 0)
	flags := u16(wire, 2)
	m.Header.Response = flags&(1<<15) != 0
	m.Header.Opcode = uint8(flags >> 11 & 0xF)
	m.Header.Authoritative = flags&(1<<10) != 0
	m.Header.Truncated = flags&(1<<9) != 0
	m.Header.RecursionDesired = flags&(1<<8) != 0
	m.Header.RecursionAvailable = flags&(1<<7) != 0
	m.Header.RCode = RCode(flags & 0xF)

	qd := int(u16(wire, 4))
	an := int(u16(wire, 6))
	ns := int(u16(wire, 8))
	ar := int(u16(wire, 10))

	off := 12
	var err error
	// Sections are sized from their counts, capped by what the remaining
	// bytes could hold (a question takes at least 5, a record 11), so a
	// forged count cannot make a short datagram allocate much.
	if qd > 0 {
		m.Questions = make([]Question, 0, min(qd, (len(wire)-off)/5))
	}
	// last is the previous name decoded: the records of one answer
	// mostly carry the question's name, and reuse its string.
	var last string
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = readName(wire, off, last)
		last = q.Name
		if err != nil {
			return nil, err
		}
		if off+4 > len(wire) {
			return nil, ErrShortMessage
		}
		q.Type = Type(u16(wire, off))
		q.Class = Class(u16(wire, off+2))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	for _, sec := range []struct {
		n   int
		dst *[]RR
	}{{an, &m.Answers}, {ns, &m.Authority}, {ar, &m.Additional}} {
		if sec.n > 0 {
			*sec.dst = make([]RR, 0, min(sec.n, (len(wire)-off)/11))
		}
		for i := 0; i < sec.n; i++ {
			var rr RR
			rr, off, err = readRR(wire, off, last)
			if err != nil {
				return nil, err
			}
			last = rr.Name
			*sec.dst = append(*sec.dst, rr)
		}
	}
	if off != len(wire) {
		return nil, ErrTrailingGarbage
	}
	return &m, nil
}

// readRR decodes the record at off; prev is the name decoded before it.
func readRR(wire []byte, off int, prev string) (RR, int, error) {
	var rr RR
	var err error
	rr.Name, off, err = readName(wire, off, prev)
	if err != nil {
		return rr, off, err
	}
	if off+10 > len(wire) {
		return rr, off, ErrShortMessage
	}
	rr.Type = Type(u16(wire, off))
	rr.Class = Class(u16(wire, off+2))
	rr.TTL = u32(wire, off+4)
	rdlen := int(u16(wire, off+8))
	off += 10
	if off+rdlen > len(wire) {
		return rr, off, ErrShortMessage
	}
	end := off + rdlen
	switch rr.Type {
	case TypeA:
		if rdlen != 4 {
			return rr, off, fmt.Errorf("dnsmsg: A rdata length %d", rdlen)
		}
		rr.Addr = netip.AddrFrom4([4]byte(wire[off:end]))
	case TypeAAAA:
		if rdlen != 16 {
			return rr, off, fmt.Errorf("dnsmsg: AAAA rdata length %d", rdlen)
		}
		rr.Addr = netip.AddrFrom16([16]byte(wire[off:end]))
	case TypeCNAME, TypeNS, TypePTR:
		var n int
		rr.Target, n, err = readName(wire, off, "")
		if err != nil {
			return rr, off, err
		}
		if n != end {
			return rr, off, fmt.Errorf("dnsmsg: %v rdata has %d stray bytes", rr.Type, end-n)
		}
	case TypeTXT:
		p := off
		for p < end {
			l := int(wire[p])
			p++
			if p+l > end {
				return rr, off, ErrShortMessage
			}
			rr.TXT = append(rr.TXT, string(wire[p:p+l]))
			p += l
		}
	case TypeSOA:
		var soa SOAData
		p := off
		soa.MName, p, err = readName(wire, p, "")
		if err != nil {
			return rr, off, err
		}
		soa.RName, p, err = readName(wire, p, "")
		if err != nil {
			return rr, off, err
		}
		if p+20 != end {
			return rr, off, fmt.Errorf("dnsmsg: SOA rdata size mismatch")
		}
		soa.Serial = u32(wire, p)
		soa.Refresh = u32(wire, p+4)
		soa.Retry = u32(wire, p+8)
		soa.Expire = u32(wire, p+12)
		soa.Minimum = u32(wire, p+16)
		rr.SOA = &soa
	default:
		// Unknown types are carried opaquely as TXT-less records; the
		// simulation never emits them, but a resolver must not choke.
	}
	return rr, end, nil
}

// readName decodes a (possibly compressed) name starting at off and
// returns the canonical name plus the offset just past the name in the
// original stream. A name equal to prev is returned as prev, without a
// new string.
func readName(wire []byte, off int, prev string) (string, int, error) {
	// Names are capped at 255 presentation octets, so a stack buffer
	// covers every legal name and the only heap allocation is the final
	// string. Lowercasing happens as labels are copied in.
	var nb [256]byte
	ln := 0
	jumped := false
	ret := off
	hops := 0
	for {
		if off >= len(wire) {
			return "", 0, ErrShortMessage
		}
		b := wire[off]
		switch {
		case b == 0:
			if !jumped {
				ret = off + 1
			}
			if ln == 0 {
				return ".", ret, nil
			}
			if string(nb[:ln]) == prev {
				return prev, ret, nil
			}
			return string(nb[:ln]), ret, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(wire) {
				return "", 0, ErrShortMessage
			}
			ptr := int(u16(wire, off)) & 0x3FFF
			if !jumped {
				ret = off + 2
				jumped = true
			}
			hops++
			if hops > 64 {
				return "", 0, ErrPointerLoop
			}
			if ptr >= off {
				// Forward pointers are illegal and would loop.
				return "", 0, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return "", 0, ErrBadName
		default:
			l := int(b)
			if off+1+l > len(wire) {
				return "", 0, ErrShortMessage
			}
			if ln+l+1 > 255 {
				return "", 0, ErrNameTooLong
			}
			for _, c := range wire[off+1 : off+1+l] {
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				nb[ln] = c
				ln++
			}
			nb[ln] = '.'
			ln++
			off += 1 + l
		}
	}
}

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func u16(b []byte, i int) uint16 { return uint16(b[i])<<8 | uint16(b[i+1]) }

func u32(b []byte, i int) uint32 {
	return uint32(b[i])<<24 | uint32(b[i+1])<<16 | uint32(b[i+2])<<8 | uint32(b[i+3])
}
