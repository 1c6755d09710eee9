package netflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strings"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	pkt, err := EncodeV5(V5Header{FlowSequence: 7}, []Record{rec("95.1.2.3", "52.0.0.9", 40123, 8883, 5000, 12)})
	if err != nil {
		t.Fatal(err)
	}
	v6rec := Record{
		Src: netip.MustParseAddr("2003::1"), Dst: netip.MustParseAddr("2600:1::9"),
		SrcPort: 55555, DstPort: 8883, Proto: ProtoTCP, Bytes: 4242, Packets: 9,
		Start: time.Date(2022, 3, 1, 2, 0, 0, 0, time.UTC),
	}
	if err := fw.WriteV5(pkt); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteV6([]Record{v6rec}); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteFlush(); err != nil {
		t.Fatal(err)
	}
	if fw.Frames[FrameV5] != 1 || fw.Frames[FrameV6] != 1 || fw.Frames[FrameFlush] != 1 {
		t.Fatalf("frame counts = %v", fw.Frames)
	}

	fr := NewFrameReader(&buf)
	f, err := fr.Next()
	if err != nil || f.Type != FrameV5 {
		t.Fatalf("frame 1 = %v, %v", f.Type, err)
	}
	h, recs, err := DecodeV5Strict(f.Payload)
	if err != nil || h.FlowSequence != 7 || len(recs) != 1 {
		t.Fatalf("v5 payload: %v %d %v", h, len(recs), err)
	}
	f, err = fr.Next()
	if err != nil || f.Type != FrameV6 {
		t.Fatalf("frame 2 = %v, %v", f.Type, err)
	}
	v6recs, err := DecodeV6Payload(f.Payload)
	if err != nil || len(v6recs) != 1 || v6recs[0] != v6rec {
		t.Fatalf("v6 payload: %+v %v", v6recs, err)
	}
	f, err = fr.Next()
	if err != nil || f.Type != FrameFlush || len(f.Payload) != 0 {
		t.Fatalf("frame 3 = %v, %v", f.Type, err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end err = %v", err)
	}
}

// frame builds one raw frame for corpus tests.
func frame(typ byte, payload []byte) []byte {
	out := []byte{frameMagic0, frameMagic1, typ, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(out[3:], uint32(len(payload)))
	return append(out, payload...)
}

// TestFrameReaderCorpus: truncated, corrupt, and oversized frames all
// yield clean descriptive errors — never panics, never silent short
// reads that let a half-frame masquerade as a whole one.
func TestFrameReaderCorpus(t *testing.T) {
	validV5, err := EncodeV5(V5Header{}, []Record{rec("1.1.1.1", "2.2.2.2", 1, 2, 3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	oversized := []byte{frameMagic0, frameMagic1, FrameV6, 0xFF, 0xFF, 0xFF, 0xFF}
	cases := []struct {
		name    string
		in      []byte
		wantEOF bool   // truncation: errors.Is(err, io.ErrUnexpectedEOF)
		wantSub string // substring of the error text
	}{
		{"truncated header", frame(FrameV5, validV5)[:3], true, "frame header truncated"},
		{"truncated payload", frame(FrameV5, validV5)[:20], true, "frame payload truncated"},
		{"bad magic", append([]byte{'X', 'Y'}, frame(FrameFlush, nil)[2:]...), false, "bad frame magic"},
		{"bad type", frame(0x7E, nil), false, "unknown frame type"},
		{"oversized length", oversized, false, "exceeds limit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewFrameReader(bytes.NewReader(c.in)).Next()
			if err == nil {
				t.Fatal("corrupt frame accepted")
			}
			if c.wantEOF && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("err = %v, want ErrUnexpectedEOF wrap", err)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("err %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

// TestDecodeV5StrictRejectsTrailingBytes: framed transport must not
// tolerate length mismatches the datagram path would read past.
func TestDecodeV5StrictRejectsTrailingBytes(t *testing.T) {
	pkt, err := EncodeV5(V5Header{}, []Record{rec("1.1.1.1", "2.2.2.2", 1, 2, 3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeV5Strict(pkt); err != nil {
		t.Fatalf("exact packet rejected: %v", err)
	}
	long := append(append([]byte{}, pkt...), 0xAB)
	if _, _, err := DecodeV5Strict(long); err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Fatalf("trailing bytes: err = %v", err)
	}
}

// TestStreamReaderCorpus: the mixed-family record stream (FrameV6
// payloads, decoded by DecodeV6Payload) against a corpus of truncated,
// corrupt, and count-lying inputs. Every error is descriptive,
// truncations wrap io.ErrUnexpectedEOF, and a record is either read
// whole or not at all.
func TestStreamReaderCorpus(t *testing.T) {
	frame, err := AppendV6Frame(nil, []Record{rec("95.0.0.1", "52.0.0.2", 1000, 8883, 999, 7)})
	if err != nil {
		t.Fatal(err)
	}
	full := frame[frameHeader:]
	for cut := 1; cut < len(full); cut++ {
		_, err := DecodeV6Payload(full[:cut])
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted (silent short read)", cut, len(full))
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d: err = %v, want ErrUnexpectedEOF wrap", cut, err)
		}
		if !strings.Contains(err.Error(), "requires") {
			t.Fatalf("truncation at %d: error not descriptive: %v", cut, err)
		}
	}
	// Corrupt family byte.
	bad := append([]byte{}, full...)
	bad[0] = 0x77
	if _, err := DecodeV6Payload(bad); err == nil || !strings.Contains(err.Error(), "bad family") {
		t.Fatalf("bad family: err = %v", err)
	}
	// A v6 family byte followed by a v4-sized body: the advertised size
	// exceeds what the payload carries.
	lied := append([]byte{famV6}, full[1:]...)
	_, err = DecodeV6Payload(lied)
	if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("oversized-count body: err = %v", err)
	}
	if !strings.Contains(err.Error(), "family 6") {
		t.Fatalf("oversized-count body error not descriptive: %v", err)
	}
}

// TestEncodeV5ClampedCounter: saturated counters are counted, and the
// sentinel survives the round trip for the collector to observe.
func TestEncodeV5ClampedCounter(t *testing.T) {
	r := rec("1.1.1.1", "2.2.2.2", 1, 2, 1<<40, 1<<36)
	pkt, clamped, err := EncodeV5Clamped(V5Header{}, []Record{r, rec("1.1.1.1", "2.2.2.2", 1, 2, 3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if clamped != 2 {
		t.Fatalf("clamped = %d, want 2", clamped)
	}
	_, recs, err := DecodeV5Strict(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Bytes != 0xFFFFFFFF || recs[0].Packets != 0xFFFFFFFF {
		t.Fatalf("sentinel lost: %+v", recs[0])
	}
	if recs[1].Bytes != 3 || recs[1].Packets != 4 {
		t.Fatalf("unsaturated record perturbed: %+v", recs[1])
	}
}

func TestPackSamplingInterval(t *testing.T) {
	si, err := PackSamplingInterval(100)
	if err != nil {
		t.Fatal(err)
	}
	if (V5Header{SamplingInterval: si}).SamplingRate() != 100 {
		t.Fatalf("rate round trip: %d", si)
	}
	if si>>14 != 1 {
		t.Fatalf("sampling mode bits = %b", si>>14)
	}
	for _, rate := range []uint32{0, 1} {
		si, err := PackSamplingInterval(rate)
		if err != nil || si != 0 {
			t.Fatalf("rate %d: si=%d err=%v", rate, si, err)
		}
	}
	if (V5Header{}).SamplingRate() != 1 {
		t.Fatal("unsampled header rate != 1")
	}
	if _, err := PackSamplingInterval(1 << 14); err == nil {
		t.Fatal("14-bit overflow accepted")
	}
}

// TestAppendFramesMatchFrameWriter: the append-based encoding (the wire
// exporter's reusable-buffer path) must be byte-identical to the
// FrameWriter reference for the same frames — envelope, payload,
// everything — and count clamps the same way.
func TestAppendFramesMatchFrameWriter(t *testing.T) {
	v4recs := []Record{
		rec("95.1.2.3", "52.0.0.9", 40123, 8883, 5000, 12),
		rec("95.1.2.4", "52.0.0.9", 40124, 443, 1<<33, 1<<33), // clamps both counters
	}
	v6recs := []Record{
		{
			Src: netip.MustParseAddr("2003::1"), Dst: netip.MustParseAddr("2600:1::9"),
			SrcPort: 55555, DstPort: 8883, Proto: ProtoTCP, Bytes: 4242, Packets: 9,
			Start: time.Date(2022, 3, 1, 2, 0, 0, 0, time.UTC),
		},
	}
	h := V5Header{FlowSequence: 7, EngineID: 3, SamplingInterval: 1<<14 | 100}

	var want bytes.Buffer
	fw := NewFrameWriter(&want)
	pkt, wantClamped, err := EncodeV5Clamped(h, v4recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteV5(pkt); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteV6(v6recs); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteFlush(); err != nil {
		t.Fatal(err)
	}

	// Seed the buffer with stale capacity to prove reuse cannot leak
	// old bytes into the zeroed v5 fields.
	got := bytes.Repeat([]byte{0xAA}, 512)[:0]
	got, clamped, err := AppendV5Frame(got, h, v4recs)
	if err != nil {
		t.Fatal(err)
	}
	if clamped != wantClamped || clamped != 2 {
		t.Fatalf("clamped = %d, want %d", clamped, wantClamped)
	}
	if got, err = AppendV6Frame(got, v6recs); err != nil {
		t.Fatal(err)
	}
	got = AppendFlushFrame(got)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("append encoding drifted from FrameWriter:\n got:  %x\n want: %x", got, want.Bytes())
	}

	// AppendFrame with a verbatim payload matches WriteFrame too.
	raw, err := AppendFrame(nil, FrameV5, pkt)
	if err != nil {
		t.Fatal(err)
	}
	var rawWant bytes.Buffer
	if err := NewFrameWriter(&rawWant).WriteFrame(FrameV5, pkt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, rawWant.Bytes()) {
		t.Fatal("AppendFrame drifted from WriteFrame")
	}
	if _, err := AppendFrame(nil, FrameV6, make([]byte, MaxFramePayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

// TestFrameReaderNoReadAhead: a live exporter goes quiet after each
// hour's flush, and that flush must reach the fold at once, so Next
// never waits for a byte past the frame it parses. The writer here
// sends each hour in two writes that split a frame, then blocks until
// the reader has seen the hour's flush; a reader that reads ahead
// waits for bytes that never come, and the test times out.
func TestFrameReaderNoReadAhead(t *testing.T) {
	const hours = 4
	pr, pw := io.Pipe()
	seen := make(chan int)
	go func() {
		for h := range hours {
			var hour []byte
			if h == 0 {
				hour = AppendHelloFrame(hour, 50, 1646006400)
			}
			hour, err := AppendDictFrame(hour, FrameLineDict, uint32(h), []netip.Addr{netip.AddrFrom4([4]byte{95, 1, 2, byte(h)})})
			if err != nil {
				pw.CloseWithError(err)
				return
			}
			var b RecordBatch
			b.Append(uint32(h), 0, false, int32(h), 8883, ProtoTCP, 10, 1)
			if hour, _, err = AppendBatchFrames(hour, &b); err != nil {
				pw.CloseWithError(err)
				return
			}
			hour = AppendFlushFrame(hour)
			half := len(hour) / 2
			if _, err := pw.Write(hour[:half]); err != nil {
				return
			}
			if _, err := pw.Write(hour[half:]); err != nil {
				return
			}
			if <-seen != h+1 {
				pw.CloseWithError(errors.New("flush count out of step"))
				return
			}
		}
		pw.Close()
	}()
	done := make(chan error, 1)
	go func() {
		fr := NewFrameReader(pr)
		flushes := 0
		for {
			f, err := fr.Next()
			switch {
			case err == io.EOF:
				if flushes != hours {
					err = fmt.Errorf("stream ended after %d of %d flushes", flushes, hours)
				} else {
					err = nil
				}
				done <- err
				return
			case err != nil:
				done <- err
				return
			case f.Type == FrameFlush:
				flushes++
				seen <- flushes
			}
		}
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		pr.CloseWithError(errors.New("timed out"))
		t.Fatal("Next waited for bytes past an hour's flush the writer had not sent")
	}
}
