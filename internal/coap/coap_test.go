package coap

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestCodeString(t *testing.T) {
	if CodeGET.String() != "0.01" {
		t.Fatalf("GET = %s", CodeGET)
	}
	if CodeContent.String() != "2.05" {
		t.Fatalf("Content = %s", CodeContent)
	}
	if CodeNotFound.String() != "4.04" {
		t.Fatalf("NotFound = %s", CodeNotFound)
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	m := &Message{
		Type:      Confirmable,
		Code:      CodeGET,
		MessageID: 0xBEEF,
		Token:     []byte{1, 2, 3, 4},
	}
	m.Options = append(m.Options, Option{Number: 3 /* Uri-Host */, Value: []byte("iot.example")})
	m.SetPath("/.well-known/core")
	m.Options = append(m.Options, Option{Number: 15 /* Uri-Query */, Value: []byte("rt=core.ps")})
	m.Payload = []byte("hello")

	wire, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != Confirmable || got.Code != CodeGET || got.MessageID != 0xBEEF {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Token, m.Token) {
		t.Fatalf("token = %x", got.Token)
	}
	if got.Path() != "/.well-known/core" {
		t.Fatalf("path = %s", got.Path())
	}
	if !bytes.Equal(got.Payload, []byte("hello")) {
		t.Fatalf("payload = %q", got.Payload)
	}
	if len(got.Options) != len(m.Options) {
		t.Fatalf("options = %d, want %d", len(got.Options), len(m.Options))
	}
}

func TestOptionDeltaExtensions(t *testing.T) {
	// Option numbers straddling the 13/14 extension encodings, plus a
	// long value (>268 bytes) to exercise length nibble 14.
	m := &Message{Type: NonConfirmable, Code: MakeCode(0, 2) /* POST */, MessageID: 9}
	m.Options = []Option{
		{Number: 1, Value: []byte("a")},
		{Number: 20, Value: []byte("b")},         // delta 19 → ext 13
		{Number: 3000, Value: []byte("c")},       // delta 2980 → ext 14
		{Number: 3001, Value: make([]byte, 300)}, // length ext 14
	}
	wire, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Options) != 4 {
		t.Fatalf("options = %d", len(got.Options))
	}
	for i := range m.Options {
		if got.Options[i].Number != m.Options[i].Number {
			t.Fatalf("option %d number = %d, want %d", i, got.Options[i].Number, m.Options[i].Number)
		}
		if !bytes.Equal(got.Options[i].Value, m.Options[i].Value) {
			t.Fatalf("option %d value mismatch", i)
		}
	}
}

func TestMarshalErrors(t *testing.T) {
	if _, err := (&Message{Token: make([]byte, 9)}).Marshal(); err != ErrBadToken {
		t.Fatalf("long token err = %v", err)
	}
	m := &Message{Options: []Option{{Number: 11}, {Number: 3}}}
	if _, err := m.Marshal(); err != ErrOptionsOrder {
		t.Fatalf("unsorted options err = %v", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{0x40}); err != ErrShort {
		t.Fatalf("short err = %v", err)
	}
	if _, err := Unmarshal([]byte{0x80, 0, 0, 0}); err != ErrBadVersion {
		t.Fatalf("version err = %v", err)
	}
	if _, err := Unmarshal([]byte{0x49, 0, 0, 0}); err != ErrBadToken {
		t.Fatalf("tkl err = %v", err)
	}
	// Payload marker with no payload.
	if _, err := Unmarshal([]byte{0x40, 0x01, 0, 1, 0xFF}); err != ErrBadOption {
		t.Fatalf("empty payload err = %v", err)
	}
	// Option nibble 15 is reserved.
	if _, err := Unmarshal([]byte{0x40, 0x01, 0, 1, 0xF1, 'x'}); err != ErrBadOption {
		t.Fatalf("reserved nibble err = %v", err)
	}
	// Option value runs past the buffer.
	if _, err := Unmarshal([]byte{0x40, 0x01, 0, 1, 0x35, 'a'}); err != ErrBadOption {
		t.Fatalf("overrun err = %v", err)
	}
}

func TestPropertyDecoderRobust(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(mid uint16, token []byte, payload []byte, path string) bool {
		if len(token) > 8 {
			token = token[:8]
		}
		m := &Message{Type: Confirmable, Code: CodeGET, MessageID: mid, Token: token}
		m.SetPath(path)
		m.Payload = payload
		wire, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(wire)
		if err != nil {
			return false
		}
		okPayload := bytes.Equal(got.Payload, payload) || (len(payload) == 0 && got.Payload == nil)
		return got.MessageID == mid && okPayload
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoveryExchange(t *testing.T) {
	h := DiscoveryHandler([]string{"/iot/telemetry", "/iot/config"})
	req := &Message{Type: Confirmable, Code: CodeGET, MessageID: 77, Token: []byte{0xAB}}
	req.SetPath(WellKnownCore)
	resp, err := exchange(h, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeContent || resp.Type != Acknowledgement {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.MessageID != 77 || !bytes.Equal(resp.Token, []byte{0xAB}) {
		t.Fatalf("correlation lost: %+v", resp)
	}
	if want := "</iot/telemetry>,</iot/config>"; string(resp.Payload) != want {
		t.Fatalf("links = %q", resp.Payload)
	}
}

func TestDiscoveryNotFound(t *testing.T) {
	h := DiscoveryHandler(nil)
	req := &Message{Type: Confirmable, Code: CodeGET, MessageID: 5}
	req.SetPath("/secret")
	resp, err := exchange(h, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeNotFound {
		t.Fatalf("code = %v", resp.Code)
	}
}

// exchange carries req to h and the response back through the wire
// codec, as a server reading datagrams would.
func exchange(h Handler, req *Message) (*Message, error) {
	wire, err := req.Marshal()
	if err != nil {
		return nil, err
	}
	got, err := Unmarshal(wire)
	if err != nil {
		return nil, err
	}
	if wire, err = h(got).Marshal(); err != nil {
		return nil, err
	}
	return Unmarshal(wire)
}

func BenchmarkUnmarshal(b *testing.B) {
	m := &Message{Type: Confirmable, Code: CodeGET, MessageID: 1, Token: []byte{1, 2}}
	m.SetPath(WellKnownCore)
	wire, _ := m.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}
