package netflow

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"testing"
	"testing/iotest"
)

// FuzzDecodeV5 drives the v5 decoder (and its strict datagram variant)
// with arbitrary bytes: it must never panic, never return records on
// error, and on success return exactly the advertised record count with
// the packet long enough to have carried it.
func FuzzDecodeV5(f *testing.F) {
	valid, err := EncodeV5(V5Header{SysUptime: 1, UnixSecs: 1646042400, FlowSequence: 3, SamplingInterval: 1<<14 | 100},
		[]Record{
			rec("95.1.2.3", "52.0.0.9", 40123, 8883, 5000, 12),
			rec("95.9.9.9", "20.1.1.1", 51000, 443, 900, 3),
		})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:24])                               // header only, count lies
	f.Add(valid[:30])                               // truncated mid-record
	f.Add([]byte{})                                 // empty
	f.Add([]byte{0, 5})                             // short header
	f.Add(append(append([]byte{}, valid...), 0xCC)) // trailing byte
	// Header advertising the record-count maximum with no records.
	big := make([]byte, v5HeaderLen)
	binary.BigEndian.PutUint16(big[0:], 5)
	binary.BigEndian.PutUint16(big[2:], V5MaxRecords)
	f.Add(big)
	// Count field past the maximum.
	over := append([]byte{}, big...)
	binary.BigEndian.PutUint16(over[2:], V5MaxRecords+1)
	f.Add(over)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, recs, err := DecodeV5(data)
		if err != nil {
			if recs != nil {
				t.Fatalf("records returned alongside error %v", err)
			}
		} else {
			if len(recs) > V5MaxRecords {
				t.Fatalf("decoded %d records > max", len(recs))
			}
			if want := v5HeaderLen + len(recs)*v5RecordLen; len(data) < want {
				t.Fatalf("decoded %d records from a %d-byte packet (needs %d): silent short read", len(recs), len(data), want)
			}
			// A successful decode must re-encode (all decoded records are
			// IPv4 with in-range counters by construction).
			if _, _, err := EncodeV5Clamped(h, recs); err != nil {
				t.Fatalf("re-encode of decoded packet failed: %v", err)
			}
		}
		// The strict variant must agree or fail — never panic.
		if _, _, serr := DecodeV5Strict(data); serr == nil && err != nil {
			t.Fatalf("strict accepted what DecodeV5 rejected: %v", err)
		}
	})
}

// FuzzFrameReader feeds arbitrary bytes through the frame layer and the
// per-type payload decoders — the full collector parse path — three
// ways: a stream dribbled one byte per Read, a stream read in whole
// buffers, and the byte-slice reader. All three must give the same
// frames, error classes and Resync skip counts. Clean errors only; a
// fuzz-found panic here would be a collector crash on a hostile feed.
func FuzzFrameReader(f *testing.F) {
	lines := []netip.Addr{netip.MustParseAddr("95.1.2.3"), netip.MustParseAddr("2003::1")}
	clean := AppendHelloFrame(nil, 100, 1646006400)
	clean, err := AppendDictFrame(clean, FrameLineDict, 0, lines)
	if err != nil {
		f.Fatal(err)
	}
	if clean, err = AppendDictFrame(clean, FrameBackendDict, 0, lines[:1]); err != nil {
		f.Fatal(err)
	}
	var rows RecordBatch
	rows.Append(1, 0, true, 17, 8883, ProtoTCP, 5000, 12)
	if clean, _, err = AppendBatchFrames(clean, &rows); err != nil {
		f.Fatal(err)
	}
	clean = AppendFlushFrame(clean)
	f.Add(clean)
	f.Add(clean[:5])
	f.Add([]byte("NF"))
	f.Add([]byte{})
	// Resync-adversarial seeds: fake "NF" magics planted inside payload
	// garbage, so the post-corruption scan locks onto decoys and must
	// still make forward progress.
	f.Add(append([]byte("noise NF noise"), clean...))
	fakeDict := []byte{'N', 'F', FrameLineDict, 0, 0, 0, 9} // envelope eating 9 bytes of what follows
	f.Add(append(append([]byte{0xFF}, fakeDict...), clean...))
	nested := frame(FrameLineDict, append(fakeDict, []byte("payload carrying a frame-shaped decoy")...))
	f.Add(append(nested[:len(nested)-4], clean...)) // outer frame truncated mid-decoy
	f.Add(append([]byte{'N', 'F', 0xEE, 0, 0, 0, 1}, clean...))
	f.Add(bytes.Repeat([]byte("NF"), 64))
	// A stream longer than the reader's window: frames straddle refills,
	// one frame outgrows the window, and garbage sits past it.
	long := bytes.Repeat(clean, 800)
	long = append(long, frame(FrameLineDict, bytes.Repeat([]byte{famV4}, frameBuf+100))...)
	long = append(append(long, "junk"...), clean...)
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		want := frameTrace(NewBytesFrameReader(data), true)
		for _, src := range []struct {
			name string
			r    io.Reader
		}{
			{"one byte per Read", iotest.OneByteReader(bytes.NewReader(data))},
			{"whole buffers", bytes.NewReader(data)},
		} {
			if got := frameTrace(NewFrameReader(src.r), false); !slices.Equal(got, want) {
				t.Fatalf("stream reader (%s) disagrees with the byte-slice reader:\n%q\nwant\n%q", src.name, got, want)
			}
		}
	})
}

// frameTrace reads fr to its end the way the self-healing collector
// does, resyncing past every corrupt envelope, and records each frame
// (type and payload), each error class and each Resync's skip count.
// With decode it also runs every payload through its decoder.
func frameTrace(fr *FrameReader, decode bool) []string {
	var out []string
	var rows RecordBatch
	for {
		fme, err := fr.Next()
		switch {
		case err == nil:
			out = append(out, fmt.Sprintf("frame %#x %x", fme.Type, fme.Payload))
			if decode {
				rows.Reset()
				_ = decodePayload(fme, &rows)
			}
			continue
		case err == io.EOF:
			return append(out, "eof")
		case IsTruncation(err):
			// A cut frame ends the stream: the next Next is a clean EOF.
			_, err = fr.Next()
			return append(out, fmt.Sprintf("truncated, then %v", err))
		case !IsCorruptFrame(err):
			return append(out, "error "+err.Error())
		}
		// Termination is part of the contract under fuzz (go test's
		// per-exec timeout catches a scan that stops progressing).
		skipped, rerr := fr.Resync()
		out = append(out, fmt.Sprintf("corrupt, resync skipped %d: %v", skipped, rerr))
		if rerr != nil {
			return out
		}
	}
}

// decodePayload runs one frame's payload through its type's decoder.
func decodePayload(fme Frame, rows *RecordBatch) error {
	var err error
	switch fme.Type {
	case FrameHello:
		_, _, err = DecodeHelloPayload(fme.Payload)
	case FrameLineDict, FrameBackendDict:
		_, _, err = DecodeDictPayload(fme.Payload, nil)
	case FrameBatch:
		err = DecodeBatchPayload(fme.Payload, rows)
	}
	return err
}
