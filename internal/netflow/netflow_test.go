package netflow

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func rec(src, dst string, sp, dp uint16, b, p uint64) Record {
	return Record{
		Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr(dst),
		SrcPort: sp, DstPort: dp, Proto: ProtoTCP,
		Bytes: b, Packets: p,
		Start: time.Date(2022, 2, 28, 10, 0, 0, 0, time.UTC),
	}
}

func TestV5RoundTrip(t *testing.T) {
	h := V5Header{SysUptime: 1234, UnixSecs: 1646042400, FlowSequence: 42, SamplingInterval: 1000}
	records := []Record{
		rec("95.1.2.3", "52.0.0.9", 40123, 8883, 5000, 12),
		rec("95.9.9.9", "20.1.1.1", 51000, 443, 900, 3),
	}
	pkt, err := EncodeV5(h, records)
	if err != nil {
		t.Fatal(err)
	}
	gh, got, err := DecodeV5(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if gh.FlowSequence != 42 || gh.SamplingInterval != 1000 {
		t.Fatalf("header = %+v", gh)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d", len(got))
	}
	for i := range records {
		r, g := records[i], got[i]
		if r.Src != g.Src || r.Dst != g.Dst || r.SrcPort != g.SrcPort ||
			r.DstPort != g.DstPort || r.Bytes != g.Bytes || r.Packets != g.Packets ||
			r.Proto != g.Proto || !r.Start.Equal(g.Start) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, g, r)
		}
	}
}

func TestV5PacketSize(t *testing.T) {
	pkt, err := EncodeV5(V5Header{}, []Record{rec("1.1.1.1", "2.2.2.2", 1, 2, 3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) != 24+48 {
		t.Fatalf("v5 packet size = %d, want 72", len(pkt))
	}
}

func TestV5Errors(t *testing.T) {
	many := make([]Record, 31)
	for i := range many {
		many[i] = rec("1.1.1.1", "2.2.2.2", 1, 2, 3, 4)
	}
	if _, err := EncodeV5(V5Header{}, many); err != ErrV5TooMany {
		t.Fatalf("too many err = %v", err)
	}
	v6 := rec("1.1.1.1", "2.2.2.2", 1, 2, 3, 4)
	v6.Dst = netip.MustParseAddr("2001:db8::1")
	if _, err := EncodeV5(V5Header{}, []Record{v6}); err != ErrV5NeedsV4 {
		t.Fatalf("v6 err = %v", err)
	}
	if _, _, err := DecodeV5([]byte{0, 5, 0}); err != ErrV5Truncated {
		t.Fatalf("short err = %v", err)
	}
	pkt, _ := EncodeV5(V5Header{}, []Record{rec("1.1.1.1", "2.2.2.2", 1, 2, 3, 4)})
	pkt[0], pkt[1] = 0, 9
	if _, _, err := DecodeV5(pkt); err != ErrNotV5 {
		t.Fatalf("version err = %v", err)
	}
	pkt2, _ := EncodeV5(V5Header{}, []Record{rec("1.1.1.1", "2.2.2.2", 1, 2, 3, 4)})
	if _, _, err := DecodeV5(pkt2[:30]); !errors.Is(err, ErrV5Truncated) {
		t.Fatalf("truncated records err = %v", err)
	} else if !strings.Contains(err.Error(), "advertises 1 records") {
		t.Fatalf("truncation error not descriptive: %v", err)
	}
}

func TestV5CounterClamp(t *testing.T) {
	r := rec("1.1.1.1", "2.2.2.2", 1, 2, 1<<40, 1<<36)
	pkt, err := EncodeV5(V5Header{}, []Record{r})
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := DecodeV5(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Bytes != 0xFFFFFFFF || got[0].Packets != 0xFFFFFFFF {
		t.Fatalf("clamp = %+v", got[0])
	}
}

// mixedStream builds a dictionary stream whose dictionaries mix IPv4
// and IPv6 entries: hello, line and backend dictionaries, one batch of
// rows over them, and a flush.
func mixedStream(t *testing.T) (stream []byte, lines, backends []netip.Addr, rows RecordBatch) {
	t.Helper()
	lines = []netip.Addr{netip.MustParseAddr("95.1.2.3"), netip.MustParseAddr("2003::1"), netip.MustParseAddr("95.0.0.1")}
	backends = []netip.Addr{netip.MustParseAddr("2600:1::9"), netip.MustParseAddr("52.0.0.9")}
	rows.Append(0, 1, true, 17, 8883, ProtoTCP, 5000, 12)
	rows.Append(1, 0, false, 166, 5671, ProtoTCP, 123456, 99)
	rows.Append(2, 1, true, 0, 5683, ProtoUDP, 80, 1)
	stream = AppendHelloFrame(nil, 100, 1646006400)
	var err error
	if stream, err = AppendDictFrame(stream, FrameLineDict, 0, lines); err != nil {
		t.Fatal(err)
	}
	if stream, err = AppendDictFrame(stream, FrameBackendDict, 0, backends); err != nil {
		t.Fatal(err)
	}
	if stream, _, err = AppendBatchFrames(stream, &rows); err != nil {
		t.Fatal(err)
	}
	return AppendFlushFrame(stream), lines, backends, rows
}

// TestStreamRoundTripMixedFamilies: a dictionary stream mixing IPv4 and
// IPv6 entries round-trips through the stream reader and the payload
// decoders, entries and rows in order.
func TestStreamRoundTripMixedFamilies(t *testing.T) {
	stream, lines, backends, rows := mixedStream(t)
	var types []byte
	var gotLines, gotBackends []netip.Addr
	var gotRows RecordBatch
	fr := NewFrameReader(bytes.NewReader(stream))
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, f.Type)
		switch f.Type {
		case FrameHello:
			if rate, epoch, err := DecodeHelloPayload(f.Payload); err != nil || rate != 100 || epoch != 1646006400 {
				t.Fatalf("hello: rate %d epoch %d, %v", rate, epoch, err)
			}
		case FrameLineDict:
			_, gotLines, err = DecodeDictPayload(f.Payload, gotLines)
		case FrameBackendDict:
			_, gotBackends, err = DecodeDictPayload(f.Payload, gotBackends)
		case FrameBatch:
			err = DecodeBatchPayload(f.Payload, &gotRows)
		}
		if err != nil {
			t.Fatalf("type 0x%02x: %v", f.Type, err)
		}
	}
	if want := []byte{FrameHello, FrameLineDict, FrameBackendDict, FrameBatch, FrameFlush}; !bytes.Equal(types, want) {
		t.Fatalf("frame types %x, want %x", types, want)
	}
	if !slices.Equal(gotLines, lines) || !slices.Equal(gotBackends, backends) {
		t.Fatalf("dictionaries %v / %v, want %v / %v", gotLines, gotBackends, lines, backends)
	}
	if !reflect.DeepEqual(gotRows, rows) {
		t.Fatalf("rows:\n got %+v\nwant %+v", gotRows, rows)
	}
}

// TestStreamReaderCorpus: every proper prefix of a hello, dictionary or
// batch payload is rejected as ErrBadPayload, and a failed batch decode
// leaves its destination untouched — an entry or row is read whole or
// not at all, never as a silent short read.
func TestStreamReaderCorpus(t *testing.T) {
	stream, _, _, _ := mixedStream(t)
	var rows RecordBatch
	for fr := NewBytesFrameReader(stream); ; {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := decodePayload(f, &rows); err != nil {
			t.Fatalf("type 0x%02x: clean payload rejected: %v", f.Type, err)
		}
		for cut := 0; cut < len(f.Payload); cut++ {
			rows.Reset()
			if err := decodePayload(Frame{Type: f.Type, Payload: f.Payload[:cut]}, &rows); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("type 0x%02x cut at %d/%d: err = %v, want ErrBadPayload", f.Type, cut, len(f.Payload), err)
			}
			if rows.Len() != 0 {
				t.Fatalf("type 0x%02x cut at %d: failed decode left %d rows", f.Type, cut, rows.Len())
			}
		}
	}
}

// TestStreamReaderErrors: a payload that does not parse as its type is
// ErrBadPayload — a per-frame fault DropFrame drops in place — and never
// an envelope error (a resync) or a truncation (the end of the stream).
func TestStreamReaderErrors(t *testing.T) {
	stream, _, _, _ := mixedStream(t)
	payloads := map[byte][]byte{}
	for fr := NewBytesFrameReader(stream); ; {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		payloads[f.Type] = f.Payload
	}
	patch := func(typ byte, at int, v byte) Frame {
		p := slices.Clone(payloads[typ])
		p[at] = v
		return Frame{Type: typ, Payload: p}
	}
	cases := []struct {
		name string
		f    Frame
	}{
		{"hello version", patch(FrameHello, 0, 9)},
		{"hello rate 0", Frame{Type: FrameHello, Payload: append([]byte{helloVersion, 0, 0, 0, 0}, payloads[FrameHello][5:]...)}},
		{"dictionary family", patch(FrameLineDict, 8, 7)},
		{"dictionary count overruns", patch(FrameLineDict, 7, 4)},
		{"dictionary trailing bytes", Frame{Type: FrameBackendDict, Payload: append(slices.Clone(payloads[FrameBackendDict]), famV4)}},
		{"batch count overruns", patch(FrameBatch, 3, 4)},
		{"batch count underruns", patch(FrameBatch, 3, 2)},
	}
	var rows RecordBatch
	for _, c := range cases {
		err := decodePayload(c.f, &rows)
		if !errors.Is(err, ErrBadPayload) || IsCorruptFrame(err) || IsTruncation(err) {
			t.Fatalf("%s: err = %v, want ErrBadPayload only", c.name, err)
		}
	}
}

// TestPropertyStreamRoundTrip: any address, IPv4 or IPv6, round-trips
// through a dictionary frame, and any row through a batch frame.
func TestPropertyStreamRoundTrip(t *testing.T) {
	f := func(v4 bool, raw [16]byte, id uint32, down bool, hour, port uint16, proto uint8, b, p uint64) bool {
		a := netip.AddrFrom16(raw)
		if v4 {
			a = netip.AddrFrom4([4]byte(raw[:4]))
		}
		stream, err := AppendDictFrame(nil, FrameBackendDict, id, []netip.Addr{a})
		if err != nil {
			return false
		}
		var rows RecordBatch
		rows.Append(id, id, down, int32(hour), port, proto, b, p)
		if stream, _, err = AppendBatchFrames(stream, &rows); err != nil {
			return false
		}
		fr := NewBytesFrameReader(stream)
		df, err := fr.Next()
		if err != nil {
			return false
		}
		base, addrs, err := DecodeDictPayload(df.Payload, nil)
		if err != nil || base != id || len(addrs) != 1 || addrs[0] != a.Unmap() {
			return false
		}
		bf, err := fr.Next()
		if err != nil {
			return false
		}
		var got RecordBatch
		if DecodeBatchPayload(bf.Payload, &got) != nil || !reflect.DeepEqual(got, rows) {
			return false
		}
		_, err = fr.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkV5Encode(b *testing.B) {
	records := make([]Record, V5MaxRecords)
	for i := range records {
		records[i] = rec("95.1.2.3", "52.0.0.9", 40123, 8883, 5000, 12)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeV5(V5Header{}, records); err != nil {
			b.Fatal(err)
		}
	}
}

// EncodeV5 serializes records into one v5 packet.
func EncodeV5(h V5Header, records []Record) ([]byte, error) {
	pkt, _, err := EncodeV5Clamped(h, records)
	return pkt, err
}

// DecodeV5 parses one v5 packet.
func DecodeV5(pkt []byte) (V5Header, []Record, error) {
	return DecodeV5Into(pkt, nil)
}
