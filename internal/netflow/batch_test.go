package netflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/netip"
	"testing"
)

func TestHelloRoundTrip(t *testing.T) {
	buf := AppendHelloFrame(nil, 100, 1646006400)
	fr := NewBytesFrameReader(buf)
	f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameHello {
		t.Fatalf("type = %#x", f.Type)
	}
	rate, epoch, err := DecodeHelloPayload(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 100 || epoch != 1646006400 {
		t.Fatalf("rate=%d epoch=%d", rate, epoch)
	}
	if _, _, err := DecodeHelloPayload(f.Payload[:5]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short hello err = %v", err)
	}
	bad := append([]byte{}, f.Payload...)
	bad[0] = 9 // unknown version
	if _, _, err := DecodeHelloPayload(bad); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("bad version err = %v", err)
	}
}

func TestDictRoundTrip(t *testing.T) {
	addrs := []netip.Addr{
		netip.MustParseAddr("95.0.0.2"),
		netip.MustParseAddr("2003:100::1"),
		netip.MustParseAddr("95.1.2.4"),
	}
	buf, err := AppendDictFrame(nil, FrameLineDict, 7, addrs)
	if err != nil {
		t.Fatal(err)
	}
	fr := NewBytesFrameReader(buf)
	f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameLineDict {
		t.Fatalf("type = %#x", f.Type)
	}
	base, got, err := DecodeDictPayload(f.Payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base != 7 || len(got) != len(addrs) {
		t.Fatalf("base=%d len=%d", base, len(got))
	}
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Fatalf("addr %d: %v != %v", i, got[i], addrs[i])
		}
	}

	// Corrupt family byte and truncated payload must error cleanly.
	bad := append([]byte{}, f.Payload...)
	bad[8] = 7
	if _, _, err := DecodeDictPayload(bad, nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("bad family err = %v", err)
	}
	if _, _, err := DecodeDictPayload(f.Payload[:len(f.Payload)-1], nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("truncated dict err = %v", err)
	}
	// A count that promises more entries than the payload carries.
	over := append([]byte{}, f.Payload...)
	binary.BigEndian.PutUint32(over[4:], 1000)
	if _, _, err := DecodeDictPayload(over, nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("overcount dict err = %v", err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	var b RecordBatch
	b.Append(3, 9, true, 17, 8883, ProtoTCP, 5000, 12)
	b.Append(4, 1, false, 166, 443, ProtoUDP, 900, 3)

	buf, frames, err := AppendBatchFrames(nil, &b)
	if err != nil || frames != 1 {
		t.Fatalf("frames=%d err=%v", frames, err)
	}
	fr := NewBytesFrameReader(buf)
	f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameBatch {
		t.Fatalf("type = %#x", f.Type)
	}
	var got RecordBatch
	if err := DecodeBatchPayload(f.Payload, &got); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("len = %d", got.Len())
	}
	if got.Line[0] != 3 || got.Backend[0] != 9 || !got.Down[0] || got.Hour[0] != 17 ||
		got.Port[0] != 8883 || got.Proto[0] != ProtoTCP || got.Bytes[0] != 5000 || got.Packets[0] != 12 {
		t.Fatalf("row 0 mismatch: %+v", got)
	}
	if got.Line[1] != 4 || got.Down[1] || got.Hour[1] != 166 || got.Proto[1] != ProtoUDP {
		t.Fatalf("row 1 mismatch: %+v", got)
	}

	// Payload length must match the advertised count exactly.
	if err := DecodeBatchPayload(f.Payload[:len(f.Payload)-1], &got); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short batch err = %v", err)
	}
	long := append(append([]byte{}, f.Payload...), 0)
	if err := DecodeBatchPayload(long, &got); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("long batch err = %v", err)
	}
	// A decode error must leave the destination untouched.
	if got.Len() != 2 {
		t.Fatalf("failed decode mutated batch: len=%d", got.Len())
	}
}

func TestBatchChunksAtMax(t *testing.T) {
	var b RecordBatch
	for i := 0; i < MaxBatchRecords+10; i++ {
		b.Append(uint32(i), 0, true, 0, 1, ProtoTCP, 1, 1)
	}
	buf, frames, err := AppendBatchFrames(nil, &b)
	if err != nil || frames != 2 {
		t.Fatalf("frames=%d err=%v", frames, err)
	}
	var got RecordBatch
	fr := NewBytesFrameReader(buf)
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeBatchPayload(f.Payload, &got); err != nil {
			t.Fatal(err)
		}
	}
	if got.Len() != b.Len() {
		t.Fatalf("reassembled %d of %d rows", got.Len(), b.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.Line[i] != uint32(i) {
			t.Fatalf("row %d line = %d", i, got.Line[i])
		}
	}

	// Hours outside the wire's uint16 range refuse to encode.
	var oob RecordBatch
	oob.Append(0, 0, true, -1, 1, ProtoTCP, 1, 1)
	if _, _, err := AppendBatchFrames(nil, &oob); err == nil {
		t.Fatal("negative hour encoded")
	}
	oob.Reset()
	oob.Append(0, 0, true, 1<<16, 1, ProtoTCP, 1, 1)
	if _, _, err := AppendBatchFrames(nil, &oob); err == nil {
		t.Fatal("oversized hour encoded")
	}
	// Empty batches are a no-op, not an empty frame.
	oob.Reset()
	out, frames, err := AppendBatchFrames([]byte{0xAA}, &oob)
	if err != nil || frames != 0 || len(out) != 1 {
		t.Fatalf("empty batch: out=%d frames=%d err=%v", len(out), frames, err)
	}
}

func TestBatchTruncate(t *testing.T) {
	var b RecordBatch
	b.Append(1, 1, true, 1, 1, ProtoTCP, 1, 1)
	b.Append(2, 2, false, 2, 2, ProtoUDP, 2, 2)
	b.Truncate(1)
	if b.Len() != 1 || b.Line[0] != 1 {
		t.Fatalf("truncate: %+v", b)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("reset len = %d", b.Len())
	}
}

// TestBytesFrameReaderMatchesStreaming: the zero-copy reader and the
// io.Reader-based one agree frame for frame on a mixed clean stream.
func TestBytesFrameReaderMatchesStreaming(t *testing.T) {
	var data []byte
	data = AppendHelloFrame(data, 50, 1646006400)
	var err error
	data, err = AppendDictFrame(data, FrameBackendDict, 0, []netip.Addr{netip.MustParseAddr("52.0.0.9")})
	if err != nil {
		t.Fatal(err)
	}
	var b RecordBatch
	b.Append(0, 0, true, 3, 8883, ProtoTCP, 10, 1)
	if data, _, err = AppendBatchFrames(data, &b); err != nil {
		t.Fatal(err)
	}
	data = AppendFlushFrame(data)

	br := NewBytesFrameReader(data)
	sr := NewFrameReader(bytes.NewReader(data))
	for {
		bf, berr := br.Next()
		sf, serr := sr.Next()
		if (berr == nil) != (serr == nil) {
			t.Fatalf("readers disagree: %v vs %v", berr, serr)
		}
		if berr == io.EOF {
			return
		}
		if berr != nil {
			t.Fatal(berr)
		}
		if bf.Type != sf.Type || !bytes.Equal(bf.Payload, sf.Payload) {
			t.Fatalf("frame mismatch: %#x vs %#x", bf.Type, sf.Type)
		}
	}
}

// TestBytesFrameReaderResync: a corrupt envelope mid-buffer advances one
// byte and Resync finds the next genuine frame — same self-healing
// contract as the streaming reader, over a mapped file.
func TestBytesFrameReaderResync(t *testing.T) {
	good := frame(FrameFlush, nil)
	var data []byte
	data = append(data, good...)
	data = append(data, []byte{0xDE, 0xAD}...) // garbage between frames
	data = append(data, good...)

	br := NewBytesFrameReader(data)
	if f, err := br.Next(); err != nil || f.Type != FrameFlush {
		t.Fatalf("first frame: %v", err)
	}
	if _, err := br.Next(); !IsCorruptFrame(err) {
		t.Fatalf("garbage err = %v", err)
	}
	if _, err := br.Resync(); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if f, err := br.Next(); err != nil || f.Type != FrameFlush {
		t.Fatalf("post-resync frame: %v", err)
	}
	if _, err := br.Next(); err != io.EOF {
		t.Fatalf("end err = %v", err)
	}

	// A frame truncated by the end of the mapping is a truncation, not
	// corruption — replay of a partially recorded file ends cleanly.
	br = NewBytesFrameReader(good[:len(good)-1])
	if _, err := br.Next(); !IsTruncation(err) {
		t.Fatalf("truncation err = %v", err)
	}
	// Resync past nothing but garbage reports EOF.
	br = NewBytesFrameReader([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF})
	if _, err := br.Next(); !IsCorruptFrame(err) {
		t.Fatal("garbage accepted")
	}
	if _, err := br.Resync(); err != io.EOF {
		t.Fatalf("resync on garbage = %v", err)
	}
}

// TestBytesFrameReaderZeroCopy: payloads alias the backing buffer.
func TestBytesFrameReaderZeroCopy(t *testing.T) {
	data := frame(FrameLineDict, []byte{1, 2, 3, 4})
	br := NewBytesFrameReader(data)
	f, err := br.Next()
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader] = 0xEE
	if f.Payload[0] != 0xEE {
		t.Fatal("payload was copied, not aliased")
	}
}
