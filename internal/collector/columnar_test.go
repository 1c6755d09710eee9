package collector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"iotmap/internal/isp"
	"iotmap/internal/netflow"
	"iotmap/internal/world"
)

// exportToFiles records the wire feed into stream-N.nf files under a
// fresh temp dir and returns their paths.
func (f *fixture) exportToFiles(t *testing.T, streams int) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, streams)
	files := make([]*os.File, streams)
	writers := make([]io.Writer, streams)
	for i := range writers {
		paths[i] = filepath.Join(dir, "stream-"+string(rune('0'+i))+".nf")
		fl, err := os.Create(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		files[i] = fl
		writers[i] = fl
	}
	if _, err := f.net.SimulateLinesToWire(writers, 0); err != nil {
		t.Fatal(err)
	}
	for _, fl := range files {
		if err := fl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestReplayMissingFile: replay of a missing file fails loudly, and the
// failed slot does not wedge finalization.
func TestReplayMissingFile(t *testing.T) {
	f := buildFixture(t, 10)
	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.IngestFile(filepath.Join(t.TempDir(), "absent.nf")); err == nil {
		t.Fatal("missing file replayed")
	}
	col.Finalize()
}

// ipfixFeed exports the fixture week as raw IPFIX messages, one run of
// messages per line, into one byte stream per shard.
func (f *fixture) ipfixFeed(t testing.TB, streams int) [][]byte {
	t.Helper()
	bufs := make([][]byte, streams)
	var encErr error
	lineRecs := make([][]netflow.Record, streams)
	seqs := make([]uint32, streams)
	f.net.SimulateLines(streams,
		func(shard int) func(netflow.Record) {
			return func(r netflow.Record) { lineRecs[shard] = append(lineRecs[shard], r) }
		},
		func(shard int, _ *isp.Line) {
			recs := lineRecs[shard]
			// Chunk to stay inside the 16-bit message length field.
			for off := 0; off < len(recs); off += 500 {
				end := min(off+500, len(recs))
				out, err := netflow.AppendIPFIXMessage(bufs[shard], uint32(shard), seqs[shard], seqs[shard] == 0, recs[off:end])
				if err != nil {
					encErr = errors.Join(encErr, err)
					continue
				}
				bufs[shard] = out
				seqs[shard] += uint32(end - off)
			}
			lineRecs[shard] = recs[:0]
		},
	)
	if encErr != nil {
		t.Fatal(encErr)
	}
	return bufs
}

// TestServeUDPTemplated: the UDP frontend sniffs the version word and
// routes v9/IPFIX datagrams through the templated decoder, mirroring
// counters into per-source stream stats; garbage stays BadPackets.
func TestServeUDPTemplated(t *testing.T) {
	f := buildFixture(t, 50)
	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- col.ServeUDP(pc) }()

	var backend *world.Server
	for _, s := range f.w.AllServers() {
		if !s.IsV6() {
			backend = s
			break
		}
	}
	recs := []netflow.Record{{
		Src: backend.Addr, Dst: netip.MustParseAddr("95.0.0.2"),
		SrcPort: 8883, DstPort: 40000, Proto: netflow.ProtoTCP,
		Bytes: 500, Packets: 3, Start: f.w.Days[0].Add(2 * time.Hour),
	}}
	src, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.Write(netflow.AppendV9Packet(nil, 7, 0, true, recs)); err != nil {
		t.Fatal(err)
	}
	ipfix, err := netflow.AppendIPFIXMessage(nil, 7, 1, true, recs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Write(ipfix); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Write([]byte{0, 42, 9, 9}); err != nil { // unknown version
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := col.Stats()
		if st.TemplatePackets == 2 && st.BadPackets == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("datagrams never arrived: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	pc.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := col.Stats()
	if st.TemplateRecords != 2 || st.V4Records != 2 {
		t.Fatalf("stats = %+v", st)
	}
	for _, ss := range col.StreamStats() {
		if ss.TemplatePackets != 2 || ss.BadPackets != 1 {
			t.Fatalf("per-source stats not mirrored: %+v", ss)
		}
	}
	_, fc := col.Finalize()
	if got := fc.Study().Downstream(f.w.AliasOf(backend.Provider)).Total(); got != 2*500*100 {
		t.Fatalf("downstream = %v", got)
	}
}

// corruptNthFrame flips a payload byte of the n-th frame of the given
// type, leaving the envelope (and thus frame sync) intact. The input
// must be a clean stream, so walking raw envelopes is safe.
func corruptNthFrame(t *testing.T, data []byte, typ byte, n int) []byte {
	t.Helper()
	seen := 0
	for off := 0; off+7 <= len(data); {
		plen := int(binary.BigEndian.Uint32(data[off+3:]))
		if data[off+2] == typ {
			if seen == n {
				out := append([]byte{}, data...)
				out[off+7+8] = 0x77 // first dict entry's family byte
				return out
			}
			seen++
		}
		off += 7 + plen
	}
	t.Fatalf("stream has no frame %d of type %#x", n, typ)
	return nil
}

// TestDictFaultPoliciesCompose: a corrupted dictionary frame under
// DropFrame discards the affected batches in place (ErrBadPayload is a
// per-frame fault: the envelope stays in sync, so no resync scan), the
// next dictionary gap-fills the lost IDs, and the rest of the stream
// folds normally. Under QuarantineStream the stream's whole
// contribution is discarded but ingestion still succeeds.
func TestDictFaultPoliciesCompose(t *testing.T) {
	f := buildFixture(t, 200)
	// Corrupt the SECOND line-dict frame: the stream establishes state,
	// loses a dictionary mid-feed, then must self-heal.
	damaged := corruptNthFrame(t, f.wireFeed(t, 1)[0], netflow.FrameLineDict, 1)

	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts, Policy: DropFrame})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.IngestStream(bytes.NewReader(damaged)); err != nil {
		t.Fatal(err)
	}
	cc, fc := col.Finalize()
	st := col.Stats()
	if st.DroppedFrames == 0 {
		t.Fatalf("nothing dropped: %+v", st)
	}
	if st.ResyncEvents != 0 {
		t.Fatalf("payload fault triggered a resync scan: %+v", st)
	}
	if fc.Study().Hours() == 0 || len(cc.Scanners(0)) == 0 {
		t.Fatal("self-healed stream contributed nothing")
	}

	// Abort policy: the same damage is fatal, with the payload error.
	colA, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := colA.IngestStream(bytes.NewReader(damaged)); !errors.Is(err, netflow.ErrBadPayload) {
		t.Fatalf("abort err = %v", err)
	}
	colA.Finalize()

	// Quarantine policy: stream discarded wholesale, ingest succeeds.
	colQ, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts, Policy: QuarantineStream})
	if err != nil {
		t.Fatal(err)
	}
	if err := colQ.IngestStream(bytes.NewReader(damaged)); err != nil {
		t.Fatal(err)
	}
	ccQ, fcQ := colQ.Finalize()
	if colQ.Stats().QuarantinedStreams != 1 {
		t.Fatalf("quarantined = %d", colQ.Stats().QuarantinedStreams)
	}
	colE, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	ccE, fcE := colE.Finalize()
	assertSameAnalysis(t, "quarantine-vs-empty", ccE, ccQ, fcE, fcQ)
}

// TestDictFramesBeforeHello: dictionary or batch frames arriving before
// the stream's hello are per-frame faults, not crashes.
func TestDictFramesBeforeHello(t *testing.T) {
	var b netflow.RecordBatch
	b.Append(0, 0, true, 0, 443, netflow.ProtoTCP, 10, 1)
	data, _, err := netflow.AppendBatchFrames(nil, &b)
	if err != nil {
		t.Fatal(err)
	}
	data = netflow.AppendFlushFrame(data)

	f := buildFixture(t, 10)
	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.IngestStream(bytes.NewReader(data)); !errors.Is(err, netflow.ErrBadPayload) {
		t.Fatalf("abort err = %v", err)
	}
	col.Finalize()

	colD, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts, Policy: DropFrame})
	if err != nil {
		t.Fatal(err)
	}
	if err := colD.IngestStream(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if st := colD.Stats(); st.DroppedFrames != 1 {
		t.Fatalf("dropped = %d", st.DroppedFrames)
	}
	colD.Finalize()
}
