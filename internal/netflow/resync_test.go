package netflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// nextErr asserts Next fails with a corrupt-envelope error.
func nextErr(t *testing.T, fr *FrameReader) error {
	t.Helper()
	_, err := fr.Next()
	if err == nil {
		t.Fatal("Next accepted a corrupt envelope")
	}
	if !IsCorruptFrame(err) {
		t.Fatalf("err = %v, not a corrupt-frame error", err)
	}
	return err
}

// TestResyncSkipsGarbage: junk between frames is scanned past and the
// next real frame parses intact, with the skip distance reported.
func TestResyncSkipsGarbage(t *testing.T) {
	junk := []byte("a burst of line noise with no frame in it")
	real := frame(FrameBatch, bytes.Repeat([]byte{0xAB}, 40))
	feed := append(append([]byte{}, junk...), real...)

	fr := NewFrameReader(bytes.NewReader(feed))
	nextErr(t, fr)
	skipped, err := fr.Resync()
	if err != nil {
		t.Fatalf("Resync: %v", err)
	}
	// The failed Next irrecoverably consumed one byte; the scan must
	// discard exactly the rest of the junk.
	if want := int64(len(junk) - 1); skipped != want {
		t.Fatalf("skipped = %d, want %d", skipped, want)
	}
	f, err := fr.Next()
	if err != nil {
		t.Fatalf("Next after resync: %v", err)
	}
	if f.Type != FrameBatch || len(f.Payload) != 40 || f.Payload[0] != 0xAB {
		t.Fatalf("recovered frame mangled: type 0x%02x, %d bytes", f.Type, len(f.Payload))
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

// TestResyncFakeMagicNeedsSecondPass: a fake "NF" header inside garbage
// whose advertised length swallows the next real frame's start is a
// valid candidate for the scan — it parses as an envelope carrying
// garbage (the payload decoder rejects it), desyncs the frame after it,
// and a second Resync must land on the real frame beyond. This is the
// adversarial loop the resync contract promises terminates.
func TestResyncFakeMagicNeedsSecondPass(t *testing.T) {
	fake := make([]byte, frameHeader)
	fake[0], fake[1], fake[2] = 'N', 'F', FrameLineDict
	binary.BigEndian.PutUint32(fake[3:], 5) // eats 5 bytes of what follows
	feed := []byte{'x', 'x'}
	feed = append(feed, fake...)
	feed = append(feed, "AB"...)                         // 2 of the fake's 5 payload bytes...
	feed = append(feed, frame(FrameFlush, nil)...)       // ...the next 3 eat this frame's magic
	feed = append(feed, frame(FrameBatch, []byte{9})...) // the recoverable survivor

	fr := NewFrameReader(bytes.NewReader(feed))
	nextErr(t, fr) // "xx" + fake header tail
	if _, err := fr.Resync(); err != nil {
		t.Fatalf("first Resync: %v", err)
	}
	// The fake candidate parses as an envelope; its payload is garbage.
	f, err := fr.Next()
	if err != nil {
		t.Fatalf("fake candidate should deliver an envelope: %v", err)
	}
	if f.Type != FrameLineDict || len(f.Payload) != 5 {
		t.Fatalf("fake frame: type 0x%02x, %d bytes", f.Type, len(f.Payload))
	}
	if _, _, derr := DecodeDictPayload(f.Payload, nil); derr == nil {
		t.Fatal("garbage payload decoded cleanly")
	}
	// The flush frame it half-ate now reads as corruption; one more
	// resync reaches the surviving batch frame.
	nextErr(t, fr)
	if _, err := fr.Resync(); err != nil {
		t.Fatalf("second Resync: %v", err)
	}
	f, err = fr.Next()
	if err != nil || f.Type != FrameBatch || !bytes.Equal(f.Payload, []byte{9}) {
		t.Fatalf("survivor frame: %+v, %v", f, err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

// TestResyncRejectedHeaderNotRefound: a real "NF" that failed type or
// length validation must not be re-found by the scan, or the reader
// would loop on it forever.
func TestResyncRejectedHeaderNotRefound(t *testing.T) {
	over := make([]byte, frameHeader)
	over[0], over[1], over[2] = 'N', 'F', FrameLineDict
	binary.BigEndian.PutUint32(over[3:], MaxFramePayload+1)
	real := frame(FrameLineDict, []byte{0xCD})
	feed := append(append([]byte{}, over...), real...)

	fr := NewFrameReader(bytes.NewReader(feed))
	nextErr(t, fr) // ErrFrameTooBig
	skipped, err := fr.Resync()
	if err != nil {
		t.Fatalf("Resync: %v", err)
	}
	// The rejected header's stashed tail (6 bytes) is scanned and — with
	// its leading byte gone — discarded without being re-found.
	if skipped != frameHeader-1 {
		t.Fatalf("skipped = %d, want %d", skipped, frameHeader-1)
	}
	f, err := fr.Next()
	if err != nil || f.Type != FrameLineDict || !bytes.Equal(f.Payload, []byte{0xCD}) {
		t.Fatalf("frame after oversize header: %+v, %v", f, err)
	}
}

// TestResyncEOF: a stream that ends in garbage reports EOF with every
// remaining byte accounted as skipped.
func TestResyncEOF(t *testing.T) {
	feed := []byte("trailing garbage, no more frames ever")
	fr := NewFrameReader(bytes.NewReader(feed))
	nextErr(t, fr)
	skipped, err := fr.Resync()
	if err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	// One byte was irrecoverably consumed by the failed Next.
	if want := int64(len(feed) - 1); skipped != want {
		t.Fatalf("skipped = %d, want %d", skipped, want)
	}
}

// TestResyncLongGarbageRun: the scan window refills across reads far
// larger than its internal chunk, and a frame straddling the refill
// boundary is still found whole.
func TestResyncLongGarbageRun(t *testing.T) {
	junk := bytes.Repeat([]byte{0x4E}, 4096) // 'N's everywhere, never "NF"
	real := frame(FrameBatch, bytes.Repeat([]byte{1}, 200))
	feed := append(append([]byte{}, junk...), real...)

	fr := NewFrameReader(bytes.NewReader(feed))
	nextErr(t, fr)
	if _, err := fr.Resync(); err != nil {
		t.Fatalf("Resync: %v", err)
	}
	f, err := fr.Next()
	if err != nil || f.Type != FrameBatch || len(f.Payload) != 200 {
		t.Fatalf("frame after long garbage: %+v, %v", f, err)
	}
}

// TestResyncHonoursPayloadLimits: each frame type's payload limit holds
// for Next and Resync alike. A header one byte over its type's limit —
// a flush or hello whose length field took a bit flip, say — is a
// corrupt envelope that Resync does not re-find, so the scan lands on
// the next real frame instead of reading the bogus length's worth of
// the stream as payload. A header at its limit is a candidate.
func TestResyncHonoursPayloadLimits(t *testing.T) {
	real := AppendFlushFrame(nil)
	for _, l := range typeLimits {
		typ, limit := l.typ, l.limit
		feed := append(header(typ, limit+1), real...)
		fr := NewBytesFrameReader(feed)
		if err := nextErr(t, fr); !errors.Is(err, ErrFrameTooBig) {
			t.Fatalf("type 0x%02x over its limit: err = %v", typ, err)
		}
		if skipped, err := fr.Resync(); err != nil || skipped != frameHeader-1 {
			t.Fatalf("type 0x%02x: Resync skipped %d, %v; want %d", typ, skipped, err, frameHeader-1)
		}
		if f, err := fr.Next(); err != nil || f.Type != FrameFlush {
			t.Fatalf("type 0x%02x: frame after the rejected header: %+v, %v", typ, f, err)
		}

		// At its limit the header is a candidate: Resync stops on it.
		fr = NewBytesFrameReader(append([]byte("xx"), header(typ, limit)...))
		nextErr(t, fr)
		if skipped, err := fr.Resync(); err != nil || skipped != 1 {
			t.Fatalf("type 0x%02x at its limit: Resync skipped %d, %v; want 1", typ, skipped, err)
		}
	}
}
