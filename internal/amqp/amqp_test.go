package amqp

import (
	"bytes"
	"net"
	"testing"
	"testing/quick"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	for _, h := range []Header{V10, {ID: ProtoTLS, Major: 1}, {ID: ProtoSASL, Major: 1, Minor: 0, Revision: 0}} {
		got, err := ParseHeader(h.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("round trip: %+v vs %+v", got, h)
		}
	}
}

func TestParseHeaderRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, []byte("AMQ"), []byte("HTTP/1.1"), []byte("XMQP\x00\x01\x00\x00")} {
		if _, err := ParseHeader(b); err != ErrNotAMQP {
			t.Fatalf("ParseHeader(%q) err = %v", b, err)
		}
	}
}

func TestHeaderString(t *testing.T) {
	if V10.String() != "AMQP(0) 1.0.0" {
		t.Fatalf("String = %s", V10)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Type: FrameAMQP, Channel: 7, Body: []byte("open-performative-bytes")}
	got, err := ReadFrame(bytes.NewReader(f.Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != f.Type || got.Channel != 7 || !bytes.Equal(got.Body, f.Body) {
		t.Fatalf("frame = %+v", got)
	}
}

func TestFrameEmptyBody(t *testing.T) {
	f := Frame{Type: FrameSASL, Channel: 0}
	got, err := ReadFrame(bytes.NewReader(f.Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Body) != 0 {
		t.Fatalf("body = %x", got.Body)
	}
}

func TestFrameExtendedHeader(t *testing.T) {
	// doff=3: one extra 4-byte extended-header word that must be skipped.
	body := []byte{0xCA, 0xFE}
	size := 12 + len(body)
	wire := []byte{byte(size >> 24), byte(size >> 16), byte(size >> 8), byte(size), 3, 0, 0, 1}
	wire = append(wire, 0, 0, 0, 0) // extended header
	wire = append(wire, body...)
	got, err := ReadFrame(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, body) || got.Channel != 1 {
		t.Fatalf("frame = %+v", got)
	}
}

func TestFrameErrors(t *testing.T) {
	// doff below 2.
	wire := []byte{0, 0, 0, 8, 1, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(wire)); err != ErrBadDoff {
		t.Fatalf("doff err = %v", err)
	}
	// size below doff*4.
	wire = []byte{0, 0, 0, 4, 2, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(wire)); err != ErrFrameTooLarge {
		t.Fatalf("small size err = %v", err)
	}
	// size above cap.
	wire = []byte{0x7F, 0, 0, 0, 2, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(wire)); err != ErrFrameTooLarge {
		t.Fatalf("big size err = %v", err)
	}
	// truncated body.
	f := Frame{Body: []byte("abc")}
	if _, err := ReadFrame(bytes.NewReader(f.Marshal()[:9])); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestPropertyFrameRoundTrip(t *testing.T) {
	f := func(typ byte, ch uint16, body []byte) bool {
		if len(body) > 1<<16 {
			body = body[:1<<16]
		}
		fr := Frame{Type: FrameType(typ), Channel: ch, Body: body}
		got, err := ReadFrame(bytes.NewReader(fr.Marshal()))
		if err != nil {
			return false
		}
		return got.Type == fr.Type && got.Channel == ch && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHelloExchange(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	srvSaw := make(chan Header, 1)
	go func() {
		theirs, err := ServerHello(server, V10, time.Second)
		if err != nil {
			close(srvSaw)
			return
		}
		srvSaw <- theirs
	}()
	theirs, err := ClientHello(client, Header{ID: ProtoSASL, Major: 1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if theirs != V10 {
		t.Fatalf("server advertised %v", theirs)
	}
	got, ok := <-srvSaw
	if !ok || got.ID != ProtoSASL {
		t.Fatalf("server saw %v, %v", got, ok)
	}
}

func BenchmarkFrameRead(b *testing.B) {
	wire := Frame{Type: FrameAMQP, Channel: 1, Body: make([]byte, 512)}.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFrame(bytes.NewReader(wire)); err != nil {
			b.Fatal(err)
		}
	}
}

// The bootstrap variants and frame types the tests exercise beside
// plain AMQP (AMQP 1.0 §2.2, §2.3).
const (
	ProtoTLS  ProtoID = 2
	ProtoSASL ProtoID = 3

	FrameAMQP FrameType = 0
	FrameSASL FrameType = 1
)

// Marshal encodes the frame with the minimum doff of 2.
func (f Frame) Marshal() []byte {
	size := 8 + len(f.Body)
	out := make([]byte, 0, size)
	out = append(out, byte(size>>24), byte(size>>16), byte(size>>8), byte(size))
	out = append(out, 2, byte(f.Type), byte(f.Channel>>8), byte(f.Channel))
	return append(out, f.Body...)
}
