package collector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// TestDictMatchesMemoryAcrossStreamCounts is the columnar headline
// property: the dictionary wire encoding — dense IDs on the wire, batch
// folds in the collector, no netip.Addr on the hot path — reproduces
// the in-memory aggregation exactly at 1, 4, and 8 streams.
func TestDictMatchesMemoryAcrossStreamCounts(t *testing.T) {
	// At threshold 5 most lines are scanner suspects and many are
	// excluded, so a batch stream's decode half drops rows before its
	// fold; at 100 nearly every row is kept.
	for _, threshold := range []int{100, 5} {
		f := buildFixture(t, 400)
		f.opts.ScannerThreshold = threshold
		ccRef, colRef := f.memoryRun(4)
		for _, streams := range []int{1, 4, 8} {
			f2 := buildFixture(t, 400)
			f2.opts.ScannerThreshold = threshold
			ccD, colD, stD := f2.wireRun(t, streams)
			assertSameAnalysis(t, fmt.Sprintf("dict-vs-memory/threshold-%d", threshold), ccRef, ccD, colRef, colD)
			if stD.BatchFrames == 0 || stD.DictEntries == 0 {
				t.Fatalf("streams=%d: dict stream carried no batches: %+v", streams, stD)
			}
			if stD.V5Packets != 0 {
				t.Fatalf("streams=%d: dict stream carried v5 packets: %+v", streams, stD)
			}
		}
	}
}

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

// TestReplayFilesMatchesMemory: recorded files replayed through the
// mapped zero-copy path (IngestFiles → mmap on linux) reproduce the
// in-memory analysis.
func TestReplayFilesMatchesMemory(t *testing.T) {
	f := buildFixture(t, 300)
	ccRef, colRef := f.memoryRun(3)
	f2 := buildFixture(t, 300)
	paths := f2.exportToFiles(t, 3)
	col, err := New(Config{Index: f2.idx, Days: f2.w.Days, Opts: f2.opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.IngestFiles(paths); err != nil {
		t.Fatal(err)
	}
	cc, fc := col.Finalize()
	assertSameAnalysis(t, "file-replay", ccRef, cc, colRef, fc)
	if col.Stats().Streams != 3 {
		t.Fatalf("streams = %d", col.Stats().Streams)
	}

	// Replay of a missing file fails loudly, naming the file.
	col, err = New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.IngestFile(filepath.Join(t.TempDir(), "absent.nf")); err == nil {
		t.Fatal("missing file replayed")
	}
	col.Finalize() // the failed slot must not wedge finalization
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

// TestIPFIXRoundTripMatchesMemory: the simulated week exported as raw
// IPFIX messages (our own templated encoder, one message run per line)
// and re-ingested through IngestIPFIX matches the memory-mode figures —
// foreign recorded feeds are first-class collector inputs.
func TestIPFIXRoundTripMatchesMemory(t *testing.T) {
	f := buildFixture(t, 300)
	ccRef, colRef := f.memoryRun(2)

	f2 := buildFixture(t, 300)
	feeds := f2.ipfixFeed(t, 2)

	col, err := New(Config{Index: f2.idx, Days: f2.w.Days, Opts: f2.opts})
	if err != nil {
		t.Fatal(err)
	}
	for i, feed := range feeds {
		if err := col.IngestIPFIX("ipfix-"+string(rune('0'+i)), bytes.NewReader(feed)); err != nil {
			t.Fatal(err)
		}
	}
	cc, fc := col.Finalize()
	assertSameAnalysis(t, "ipfix", ccRef, cc, colRef, fc)
	st := col.Stats()
	if st.TemplatePackets == 0 || st.TemplateRecords == 0 {
		t.Fatalf("no templated traffic counted: %+v", st)
	}
	if st.BadPackets != 0 || st.RateMismatches != 0 {
		t.Fatalf("clean IPFIX feed degraded: %+v", st)
	}
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
	var clean bytes.Buffer
	if _, err := f.net.SimulateLinesToWire([]io.Writer{&clean}, 0); err != nil {
		t.Fatal(err)
	}
	// Corrupt the SECOND line-dict frame: the stream establishes state,
	// loses a dictionary mid-feed, then must self-heal.
	damaged := corruptNthFrame(t, clean.Bytes(), netflow.FrameLineDict, 1)

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
