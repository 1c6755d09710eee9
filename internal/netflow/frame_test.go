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

// TestFrameRoundTrip: every frame type round-trips through AppendFrame
// and the stream reader at its payload limit, and AppendFrame refuses a
// payload one byte over it or a type the reader would reject, so the
// encoder never writes a frame the reader discards.
func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	for _, l := range typeLimits {
		payload := bytes.Repeat([]byte{l.typ}, int(l.limit))
		var err error
		if stream, err = AppendFrame(stream, l.typ, payload); err != nil {
			t.Fatalf("type 0x%02x at its limit: %v", l.typ, err)
		}
		if _, err := AppendFrame(nil, l.typ, append(payload, 0)); !errors.Is(err, ErrFrameTooBig) {
			t.Fatalf("type 0x%02x one byte over its limit: err = %v", l.typ, err)
		}
	}
	if _, err := AppendFrame(nil, 0x7E, nil); !errors.Is(err, ErrBadFrameType) {
		t.Fatalf("unknown type: err = %v", err)
	}
	fr := NewFrameReader(bytes.NewReader(stream))
	for _, l := range typeLimits {
		f, err := fr.Next()
		if err != nil || f.Type != l.typ || !bytes.Equal(f.Payload, bytes.Repeat([]byte{l.typ}, int(l.limit))) {
			t.Fatalf("type 0x%02x: got type 0x%02x, %d bytes, %v", l.typ, f.Type, len(f.Payload), err)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end err = %v", err)
	}
}

// typeLimits is every frame type with its payload limit, as the wire
// format documents them.
var typeLimits = []struct {
	typ   byte
	limit uint32
}{
	{FrameFlush, 0},
	{FrameHello, 13},
	{FrameBatch, 4 + MaxBatchRecords*batchRowLen},
	{FrameLineDict, MaxFramePayload},
	{FrameBackendDict, MaxFramePayload},
}

// header builds a raw frame header advertising n payload bytes.
func header(typ byte, n uint32) []byte {
	out := []byte{frameMagic0, frameMagic1, typ, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(out[3:], n)
	return out
}

// frame builds one raw frame for corpus tests.
func frame(typ byte, payload []byte) []byte {
	return append(header(typ, uint32(len(payload))), payload...)
}

// TestFrameReaderCorpus: truncated, corrupt, and oversized frames all
// yield clean descriptive errors — never panics, never silent short
// reads that let a half-frame masquerade as a whole one.
func TestFrameReaderCorpus(t *testing.T) {
	var b RecordBatch
	b.Append(1, 2, true, 3, 8883, ProtoTCP, 5000, 12)
	batch, _, err := AppendBatchFrames(nil, &b)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		in      []byte
		wantEOF bool   // truncation: errors.Is(err, io.ErrUnexpectedEOF)
		wantSub string // substring of the error text
	}{
		{"truncated header", batch[:3], true, "frame header truncated"},
		{"truncated payload", batch[:20], true, "frame payload truncated"},
		{"bad magic", append([]byte{'X', 'Y'}, frame(FrameFlush, nil)[2:]...), false, "bad frame magic"},
		{"bad type", frame(0x7E, nil), false, "unknown frame type"},
		{"oversized length", header(FrameLineDict, 0xFFFFFFFF), false, "exceeds limit"},
		{"flush with payload", header(FrameFlush, 1), false, "exceeds limit"},
		{"hello over its size", header(FrameHello, 14), false, "exceeds limit"},
		{"batch over its row cap", header(FrameBatch, 4+MaxBatchRecords*batchRowLen+1), false, "exceeds limit"},
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

// TestDecodeV5StrictRejectsTrailingBytes: a UDP datagram longer than
// its record count advertises is corrupt, not a packet with slack.
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
