package mqtt

import (
	"bytes"
	"net"
	"testing"
	"testing/quick"
	"time"
)

func TestRemainingLengthRoundTrip(t *testing.T) {
	cases := []struct {
		n    int
		wire []byte
	}{
		{0, []byte{0x00}},
		{127, []byte{0x7F}},
		{128, []byte{0x80, 0x01}},
		{16383, []byte{0xFF, 0x7F}},
		{16384, []byte{0x80, 0x80, 0x01}},
		{2097151, []byte{0xFF, 0xFF, 0x7F}},
		{268435455, []byte{0xFF, 0xFF, 0xFF, 0x7F}},
	}
	for _, c := range cases {
		got, err := AppendRemainingLength(nil, c.n)
		if err != nil {
			t.Fatalf("encode %d: %v", c.n, err)
		}
		if !bytes.Equal(got, c.wire) {
			t.Fatalf("encode %d = %x, want %x", c.n, got, c.wire)
		}
		back, err := ReadRemainingLength(bytes.NewReader(c.wire))
		if err != nil || back != c.n {
			t.Fatalf("decode %x = %d, %v", c.wire, back, err)
		}
	}
	if _, err := AppendRemainingLength(nil, 268435456); err == nil {
		t.Fatal("oversized length accepted")
	}
	if _, err := ReadRemainingLength(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01})); err == nil {
		t.Fatal("5-byte length accepted")
	}
}

func TestPropertyRemainingLength(t *testing.T) {
	f := func(n uint32) bool {
		v := int(n % 268435456)
		wire, err := AppendRemainingLength(nil, v)
		if err != nil {
			return false
		}
		back, err := ReadRemainingLength(bytes.NewReader(wire))
		return err == nil && back == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func roundTrip(t *testing.T, wire []byte) Raw {
	t.Helper()
	raw, err := NewReader(bytes.NewReader(wire), 0).Next()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestConnectRoundTrip(t *testing.T) {
	c := &Connect{
		ClientID:     "sensor-0042",
		Username:     "device",
		Password:     []byte("s3cret"),
		KeepAlive:    30,
		CleanSession: true,
		WillTopic:    "will/sensor-0042",
		WillMessage:  []byte("gone"),
		WillQoS:      1,
		WillRetain:   true,
	}
	wire, err := c.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeConnect(roundTrip(t, wire))
	if err != nil {
		t.Fatal(err)
	}
	if got.ClientID != c.ClientID || got.Username != c.Username ||
		!bytes.Equal(got.Password, c.Password) || got.KeepAlive != 30 ||
		!got.CleanSession || got.WillTopic != c.WillTopic ||
		!bytes.Equal(got.WillMessage, c.WillMessage) || got.WillQoS != 1 || !got.WillRetain {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestConnectMinimal(t *testing.T) {
	c := &Connect{ClientID: "x", CleanSession: true}
	wire, _ := c.Append(nil)
	got, err := DecodeConnect(roundTrip(t, wire))
	if err != nil {
		t.Fatal(err)
	}
	if got.Username != "" || got.Password != nil || got.WillTopic != "" {
		t.Fatalf("minimal connect grew fields: %+v", got)
	}
}

func TestConnackRoundTrip(t *testing.T) {
	for _, code := range []ConnackCode{ConnAccepted, ConnRefusedNotAuth, ConnRefusedVersion} {
		a := &Connack{SessionPresent: code == ConnAccepted, Code: code}
		wire, _ := a.Append(nil)
		got, err := DecodeConnack(roundTrip(t, wire))
		if err != nil {
			t.Fatal(err)
		}
		if *got != *a {
			t.Fatalf("connack mismatch: %+v vs %+v", got, a)
		}
	}
}

func TestPublishRoundTrip(t *testing.T) {
	for _, qos := range []byte{0, 1, 2} {
		p := &Publish{Topic: "iot/telemetry", Payload: []byte("{\"t\":21.5}"), QoS: qos, Retain: qos == 0, Dup: qos == 2, PacketID: 99}
		wire, err := p.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodePublish(roundTrip(t, wire))
		if err != nil {
			t.Fatal(err)
		}
		if got.Topic != p.Topic || !bytes.Equal(got.Payload, p.Payload) || got.QoS != qos {
			t.Fatalf("publish mismatch at qos %d: %+v", qos, got)
		}
		if qos > 0 && got.PacketID != 99 {
			t.Fatalf("packet id lost: %+v", got)
		}
	}
	if _, err := (&Publish{Topic: "x", QoS: 3}).Append(nil); err == nil {
		t.Fatal("QoS 3 accepted")
	}
}

func TestSubscribeSubackRoundTrip(t *testing.T) {
	s := &Subscribe{PacketID: 7, Topics: []TopicFilter{{Filter: "a/+/b", QoS: 1}, {Filter: "#", QoS: 0}}}
	wire, err := s.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSubscribe(roundTrip(t, wire))
	if err != nil {
		t.Fatal(err)
	}
	if got.PacketID != 7 || len(got.Topics) != 2 || got.Topics[0].Filter != "a/+/b" || got.Topics[0].QoS != 1 {
		t.Fatalf("subscribe mismatch: %+v", got)
	}
	if _, err := (&Subscribe{PacketID: 1}).Append(nil); err == nil {
		t.Fatal("empty subscribe accepted")
	}

	ack := &Suback{PacketID: 7, Codes: []byte{1, 0x80}}
	wire, _ = ack.Append(nil)
	gotAck, err := DecodeSuback(roundTrip(t, wire))
	if err != nil {
		t.Fatal(err)
	}
	if gotAck.PacketID != 7 || !bytes.Equal(gotAck.Codes, []byte{1, 0x80}) {
		t.Fatalf("suback mismatch: %+v", gotAck)
	}
}

func TestControlPackets(t *testing.T) {
	for _, tc := range []struct {
		wire []byte
		typ  PacketType
	}{
		{AppendPingreq(nil), PINGREQ},
		{AppendPingresp(nil), PINGRESP},
		{AppendDisconnect(nil), DISCONNECT},
	} {
		raw := roundTrip(t, tc.wire)
		if raw.Header.Type != tc.typ || raw.Header.RemainingLength != 0 {
			t.Fatalf("%v header = %+v", tc.typ, raw.Header)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	// Wrong packet type for decoder.
	wire, _ := (&Connack{}).Append(nil)
	if _, err := DecodeConnect(roundTrip(t, wire)); err != ErrWrongPacketType {
		t.Fatalf("err = %v", err)
	}
	// Bad protocol name.
	body := []byte{0, 4, 'M', 'Q', 'T', 'Z', 4, 2, 0, 30, 0, 1, 'x'}
	raw := Raw{Header: FixedHeader{Type: CONNECT, RemainingLength: len(body)}, Body: body}
	if _, err := DecodeConnect(raw); err != ErrBadProtocol {
		t.Fatalf("bad protocol err = %v", err)
	}
	// Truncated CONNACK.
	if _, err := DecodeConnack(Raw{Header: FixedHeader{Type: CONNACK}, Body: []byte{0}}); err != ErrMalformed {
		t.Fatalf("truncated connack err = %v", err)
	}
	// Reserved CONNECT flag set.
	bad := []byte{0, 4, 'M', 'Q', 'T', 'T', 4, 0x03, 0, 30, 0, 1, 'x'}
	if _, err := DecodeConnect(Raw{Header: FixedHeader{Type: CONNECT, RemainingLength: len(bad)}, Body: bad}); err != ErrMalformed {
		t.Fatalf("reserved flag err = %v", err)
	}
	// SUBSCRIBE with wrong fixed flags.
	sw, _ := (&Subscribe{PacketID: 1, Topics: []TopicFilter{{Filter: "t"}}}).Append(nil)
	sw[0] = byte(SUBSCRIBE)<<4 | 0x0 // clear required 0010 flags
	r, err := NewReader(bytes.NewReader(sw), 0).Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSubscribe(r); err != ErrMalformed {
		t.Fatalf("bad sub flags err = %v", err)
	}
}

func TestReaderPacketCap(t *testing.T) {
	p := &Publish{Topic: "t", Payload: make([]byte, 4096)}
	wire, _ := p.Append(nil)
	if _, err := NewReader(bytes.NewReader(wire), 128).Next(); err != ErrPacketTooLarge {
		t.Fatalf("cap err = %v", err)
	}
}

func TestPropertyDecoderRobust(t *testing.T) {
	f := func(data []byte) bool {
		rd := NewReader(bytes.NewReader(data), 1<<16)
		for {
			raw, err := rd.Next()
			if err != nil {
				return true
			}
			// Feed every typed decoder; none may panic.
			_, _ = DecodeConnect(raw)
			_, _ = DecodeConnack(raw)
			_, _ = DecodePublish(raw)
			_, _ = DecodeSubscribe(raw)
			_, _ = DecodeSuback(raw)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestClientServerHandshakeOverPipe(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	type srvResult struct {
		c    *Connect
		code ConnackCode
		err  error
	}
	resCh := make(chan srvResult, 1)
	go func() {
		c, code, err := ServerHandshake(server, RequireAuth, time.Second)
		resCh <- srvResult{c, code, err}
	}()

	ack, err := ClientHandshake(client, &Connect{ClientID: "probe", CleanSession: true}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Code != ConnRefusedNotAuth {
		t.Fatalf("anonymous probe code = %v", ack.Code)
	}
	res := <-resCh
	if res.err != nil || res.c.ClientID != "probe" || res.code != ConnRefusedNotAuth {
		t.Fatalf("server side = %+v", res)
	}
}

func TestHandshakeAccepted(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		_, _, _ = ServerHandshake(server, AcceptAll, time.Second)
		_ = Echo(server)
	}()
	ack, err := ClientHandshake(client, &Connect{ClientID: "dev1", Username: "u", Password: []byte("p"), CleanSession: true}, time.Second)
	if err != nil || ack.Code != ConnAccepted {
		t.Fatalf("handshake: %v, %+v", err, ack)
	}
	// Ping through the echo loop.
	if _, err := client.Write(AppendPingreq(nil)); err != nil {
		t.Fatal(err)
	}
	raw, err := NewReader(client, 0).Next()
	if err != nil || raw.Header.Type != PINGRESP {
		t.Fatalf("ping: %v %+v", err, raw.Header)
	}
	// Subscribe through the echo loop.
	sub := &Subscribe{PacketID: 3, Topics: []TopicFilter{{Filter: "a", QoS: 1}}}
	wire, _ := sub.Append(nil)
	if _, err := client.Write(wire); err != nil {
		t.Fatal(err)
	}
	raw, err = NewReader(client, 0).Next()
	if err != nil || raw.Header.Type != SUBACK {
		t.Fatalf("suback: %v %+v", err, raw.Header)
	}
	if _, err := client.Write(AppendDisconnect(nil)); err != nil {
		t.Fatal(err)
	}
}

func TestPacketTypeStrings(t *testing.T) {
	if CONNECT.String() != "CONNECT" || PacketType(15).String() != "TYPE15" {
		t.Fatal("PacketType.String mismatch")
	}
	if ConnAccepted.String() != "accepted" || ConnackCode(9).String() == "" {
		t.Fatal("ConnackCode.String mismatch")
	}
}

func BenchmarkConnectDecode(b *testing.B) {
	wire, _ := (&Connect{ClientID: "sensor-0042", Username: "u", Password: []byte("p"), CleanSession: true, KeepAlive: 60}).Append(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw, err := NewReader(bytes.NewReader(wire), 0).Next()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeConnect(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// The client side of the packets the broker answers: the tests drive
// Echo and the decoders with them.

// AppendPingreq serializes a PINGREQ packet.
func AppendPingreq(b []byte) []byte { return append(b, byte(PINGREQ)<<4, 0) }

// AppendDisconnect serializes a DISCONNECT packet.
func AppendDisconnect(b []byte) []byte { return append(b, byte(DISCONNECT)<<4, 0) }

// DecodeSuback parses a SUBACK body.
func DecodeSuback(raw Raw) (*Suback, error) {
	if raw.Header.Type != SUBACK {
		return nil, ErrWrongPacketType
	}
	if len(raw.Body) < 3 {
		return nil, ErrMalformed
	}
	return &Suback{
		PacketID: uint16(raw.Body[0])<<8 | uint16(raw.Body[1]),
		Codes:    append([]byte(nil), raw.Body[2:]...),
	}, nil
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
