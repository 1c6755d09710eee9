package netflow

import (
	"errors"
	"net/netip"
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

// TestStreamRoundTripMixedFamilies: the mixed-family record encoding
// (FrameV6 payloads) round-trips IPv4 and IPv6 records in order.
func TestStreamRoundTripMixedFamilies(t *testing.T) {
	records := []Record{
		rec("95.1.2.3", "52.0.0.9", 40123, 8883, 5000, 12),
		{
			Src: netip.MustParseAddr("2003::1"), Dst: netip.MustParseAddr("2600:1::9"),
			SrcPort: 55555, DstPort: 5671, Proto: ProtoTCP, Bytes: 123456, Packets: 99,
			Start: time.Date(2022, 3, 1, 2, 0, 0, 0, time.UTC),
		},
		{
			Src: netip.MustParseAddr("95.0.0.1"), Dst: netip.MustParseAddr("111.0.0.1"),
			SrcPort: 1024, DstPort: 5683, Proto: ProtoUDP, Bytes: 80, Packets: 1,
			Start: time.Date(2022, 3, 2, 23, 0, 0, 0, time.UTC),
		},
	}
	frame, err := AppendV6Frame(nil, records)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeV6Payload(frame[frameHeader:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("decoded %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if got[i] != records[i] {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], records[i])
		}
	}
}

func TestStreamReaderErrors(t *testing.T) {
	// Bad family byte.
	if _, err := DecodeV6Payload([]byte{9}); err == nil {
		t.Fatal("bad family accepted")
	}
	// Truncated body.
	frame, err := AppendV6Frame(nil, []Record{rec("1.1.1.1", "2.2.2.2", 1, 2, 3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	trunc := frame[frameHeader : frameHeader+10]
	if _, err := DecodeV6Payload(trunc); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestPropertyStreamRoundTrip(t *testing.T) {
	f := func(v4 bool, sp, dp uint16, b, p uint64, secs uint32) bool {
		r := Record{
			SrcPort: sp, DstPort: dp, Proto: ProtoTCP,
			Bytes: b, Packets: p, Start: time.Unix(int64(secs), 0).UTC(),
		}
		if v4 {
			r.Src = netip.MustParseAddr("10.0.0.1")
			r.Dst = netip.MustParseAddr("10.0.0.2")
		} else {
			r.Src = netip.MustParseAddr("2001:db8::1")
			r.Dst = netip.MustParseAddr("2001:db8::2")
		}
		frame, err := AppendV6Frame(nil, []Record{r})
		if err != nil {
			return false
		}
		got, err := DecodeV6Payload(frame[frameHeader:])
		return err == nil && len(got) == 1 && got[0] == r
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
