package collector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"iotmap/internal/core/flows"
	"iotmap/internal/netflow"
	"iotmap/internal/world"
)

// TestPolicyCleanFeedIdentity: on a clean feed the graceful policies
// are pure insurance — DropFrame and QuarantineStream must reproduce
// the Abort-mode analysis exactly, with every degradation counter zero.
func TestPolicyCleanFeedIdentity(t *testing.T) {
	f := buildFixture(t, 400)
	refCC, refCol := f.memoryRun(3)
	feeds := f.wireFeed(t, 3)
	for _, pol := range []ErrorPolicy{Abort, DropFrame, QuarantineStream} {
		col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		if err := col.IngestStreams(feedReaders(feeds)); err != nil {
			t.Fatal(err)
		}
		cc, fc := col.Finalize()
		assertSameAnalysis(t, pol.String(), refCC, cc, refCol, fc)
		if stats := col.Stats(); stats.DroppedFrames != 0 || stats.ResyncEvents != 0 ||
			stats.StallTimeouts != 0 || stats.Reconnects != 0 ||
			stats.QuarantinedStreams != 0 {
			t.Fatalf("%s: clean feed reported degradation: %+v", pol, stats)
		}
	}
}

// v4Backend returns a v4 backend server so crafted records classify.
func v4Backend(t *testing.T, w *world.World) *world.Server {
	t.Helper()
	for _, s := range w.AllServers() {
		if !s.IsV6() {
			return s
		}
	}
	t.Fatal("no v4 backend in fixture")
	return nil
}

// v5Packet builds one classifiable single-record v5 packet.
func v5Packet(t *testing.T, f *fixture, backend *world.Server, line string, vol uint64, hour int) []byte {
	t.Helper()
	const si = 1<<14 | 100 // sampled 1:100
	pkt, _, err := netflow.EncodeV5Clamped(netflow.V5Header{
		SamplingInterval: si,
		UnixSecs:         uint32(f.w.Days[0].Add(time.Duration(hour) * time.Hour).Unix()),
	}, []netflow.Record{{
		Src: backend.Addr, Dst: netip.MustParseAddr(line),
		SrcPort: 8883, DstPort: 40000, Proto: netflow.ProtoTCP,
		Bytes: vol, Packets: 3, Start: f.w.Days[0].Add(time.Duration(hour) * time.Hour),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// dictHead starts a hand-built dictionary feed: a hello advertising
// rate 100 with the study start as its epoch, then backend as backend
// ID 0.
func dictHead(t *testing.T, f *fixture, backend *world.Server) []byte {
	t.Helper()
	out := netflow.AppendHelloFrame(nil, 100, f.w.Days[0].Unix())
	out, err := netflow.AppendDictFrame(out, netflow.FrameBackendDict, 0, []netip.Addr{backend.Addr})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// dictLine appends line as line ID id, then a one-row batch: vol
// sampled bytes from backend ID 0 down to it at study hour hour.
func dictLine(t *testing.T, dst []byte, id uint32, line string, vol uint64, hour int) []byte {
	t.Helper()
	dst, err := netflow.AppendDictFrame(dst, netflow.FrameLineDict, id, []netip.Addr{netip.MustParseAddr(line)})
	if err != nil {
		t.Fatal(err)
	}
	var b netflow.RecordBatch
	b.Append(id, 0, true, int32(hour), 8883, netflow.ProtoTCP, vol, 3)
	if dst, _, err = netflow.AppendBatchFrames(dst, &b); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestDropFrameResyncAndDecodeDrop: under DropFrame, envelope garbage
// triggers a resync scan to the next real frame and a broken payload in
// an intact envelope is dropped in place — in both cases every healthy
// frame around the damage still lands in the analysis.
func TestDropFrameResyncAndDecodeDrop(t *testing.T) {
	f := buildFixture(t, 50)
	backend := v4Backend(t, f.w)

	feed := dictHead(t, f, backend)
	feed = dictLine(t, feed, 0, "95.0.0.1", 500, 2)
	// Envelope garbage between frames: forces a resync scan.
	feed = append(feed, "!! exporter restart banner, definitely not a frame !!"...)
	feed = dictLine(t, feed, 1, "95.0.0.2", 700, 3)
	// Intact envelope, broken payload: the batch's row count, just ahead
	// of its one 30-byte row, claims two rows.
	feed = dictLine(t, feed, 2, "95.0.0.3", 900, 4)
	binary.BigEndian.PutUint32(feed[len(feed)-30-4:], 2)
	feed = dictLine(t, feed, 3, "95.0.0.4", 1100, 5)
	feed = netflow.AppendFlushFrame(feed)

	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts, Policy: DropFrame})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.IngestStream(bytes.NewReader(feed)); err != nil {
		t.Fatalf("DropFrame ingest aborted: %v", err)
	}
	st := col.Stats()
	if st.ResyncEvents == 0 {
		t.Fatalf("no resync recorded: %+v", st)
	}
	if st.DroppedFrames != 1 {
		t.Fatalf("dropped = %d, want 1 (the overrun batch): %+v", st.DroppedFrames, st)
	}
	_, fc := col.Finalize()
	alias := f.w.AliasOf(backend.Provider)
	want := uint64(500+700+1100) * 100 // the overrun batch's row must be gone
	if got := fc.Study().Downstream(alias).Total(); got != float64(want) {
		t.Fatalf("downstream = %v, want %d", got, want)
	}
	ss := col.StreamStats()[0]
	if ss.HoursCovered != 3 {
		t.Fatalf("hours covered = %d, want 3 (hours 2, 3, 5)", ss.HoursCovered)
	}
}

// TestDropFrameTruncatedTail: a feed that dies mid-frame keeps
// everything ingested up to the cut.
func TestDropFrameTruncatedTail(t *testing.T) {
	f := buildFixture(t, 50)
	backend := v4Backend(t, f.w)
	feed := dictLine(t, dictHead(t, f, backend), 0, "95.0.0.1", 500, 2)
	feed = dictLine(t, feed, 1, "95.0.0.2", 700, 3)
	cut := feed[:len(feed)-5] // lose the second batch's tail

	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts, Policy: DropFrame})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.IngestStream(bytes.NewReader(cut)); err != nil {
		t.Fatalf("truncated tail aborted the stream: %v", err)
	}
	st := col.Stats()
	if st.DroppedFrames != 1 {
		t.Fatalf("dropped = %d, want 1: %+v", st.DroppedFrames, st)
	}
	_, fc := col.Finalize()
	if got := fc.Study().Downstream(f.w.AliasOf(backend.Provider)).Total(); got != 500*100 {
		t.Fatalf("downstream = %v, want %d", got, 500*100)
	}
}

// TestDropFrameFlushLengthFlip: a bit flip in a flush frame's length
// field costs that flush and nothing else. A flush carries no payload,
// so any nonzero length is over its type's limit: the reader resyncs
// once, onto the next frame, instead of reading the bogus length's
// worth of the stream as payload (or waiting for it past the end). Each
// of the 32 length bits of the feed's 4th flush is flipped in turn;
// losing a flush only merges two line batches, so the analysis equals
// the clean run's.
func TestDropFrameFlushLengthFlip(t *testing.T) {
	f := buildFixture(t, 50)
	feed := f.wireFeed(t, 1)[0]
	run := func(feed []byte) (*flows.ContactCounter, *flows.Collector, Stats) {
		col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts, Policy: DropFrame})
		if err != nil {
			t.Fatal(err)
		}
		if err := col.IngestStream(bytes.NewReader(feed)); err != nil {
			t.Fatal(err)
		}
		cc, fc := col.Finalize()
		return cc, fc, col.Stats()
	}
	refCC, refCol, ref := run(feed)

	// Find the 4th flush frame's offset.
	at, flushes := -1, 0
	for off, fr := 0, netflow.NewBytesFrameReader(feed); at < 0; {
		fme, err := fr.Next()
		if err != nil {
			t.Fatalf("feed has %d flush frames: %v", flushes, err)
		}
		if fme.Type == netflow.FrameFlush {
			if flushes++; flushes == 4 {
				at = off
			}
		}
		off += 7 + len(fme.Payload)
	}
	for bit := 0; bit < 32; bit++ {
		damaged := slices.Clone(feed)
		damaged[at+3+bit/8] ^= 0x80 >> (bit % 8)
		cc, fc, st := run(damaged)
		label := fmt.Sprintf("length bit %d", bit)
		assertSameAnalysis(t, label, refCC, cc, refCol, fc)
		if st.ResyncEvents != 1 || st.DroppedFrames != 0 || st.BatchRecords != ref.BatchRecords || st.Flushes != ref.Flushes-1 {
			t.Fatalf("%s: stats %+v\nclean %+v", label, st, ref)
		}
	}
}

// TestQuarantineStreamDiscardsContribution: a poisoned stream under
// QuarantineStream contributes nothing — the analysis equals a run that
// never saw that stream at all, while the wire counters still record
// what arrived before the fault.
func TestQuarantineStreamDiscardsContribution(t *testing.T) {
	f := buildFixture(t, 300)
	feeds := f.wireFeed(t, 2)

	// Reference: stream 0 only.
	colRef, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := colRef.IngestStream(bytes.NewReader(feeds[0])); err != nil {
		t.Fatal(err)
	}
	refCC, refCol := colRef.Finalize()

	// Quarantine run: stream 1 carries the full healthy feed and THEN
	// turns to garbage — its entire week must still be discarded.
	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts, Policy: QuarantineStream})
	if err != nil {
		t.Fatal(err)
	}
	feeds[1] = append(feeds[1], "NF\xffgarbage after a healthy week"...)
	if err := col.IngestStreams(feedReaders(feeds)); err != nil {
		t.Fatalf("quarantine run errored: %v", err)
	}
	st := col.Stats()
	if st.QuarantinedStreams != 1 {
		t.Fatalf("quarantined = %d, want 1: %+v", st.QuarantinedStreams, st)
	}
	if st.Frames == 0 {
		t.Fatal("wire counters lost: frames seen before the fault must stay countable")
	}
	cc, fc := col.Finalize()
	assertSameAnalysis(t, "quarantine", refCC, cc, refCol, fc)
	for _, ss := range col.StreamStats() {
		if ss.QuarantinedStreams == 1 && ss.HoursCovered != 0 {
			t.Fatalf("quarantined stream still claims %d covered hours", ss.HoursCovered)
		}
	}
}

// ipfixMessage builds one raw IPFIX message carrying a single
// classifiable record; withTemplate prepends the template set.
func ipfixMessage(t *testing.T, f *fixture, backend *world.Server, line string, vol uint64, hour int, seq uint32, withTemplate bool) []byte {
	t.Helper()
	msg, err := netflow.AppendIPFIXMessage(nil, 7, seq, withTemplate, []netflow.Record{{
		Src: backend.Addr, Dst: netip.MustParseAddr(line),
		SrcPort: 8883, DstPort: 40000, Proto: netflow.ProtoTCP,
		Bytes: vol, Packets: 3, Start: f.w.Days[0].Add(time.Duration(hour) * time.Hour),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// TestStallWatchdog: a feed that goes silent mid-week is cut by the
// watchdog, framed or raw IPFIX alike; under DropFrame the stream ends
// early with its contribution intact and the stall is counted.
func TestStallWatchdog(t *testing.T) {
	f := buildFixture(t, 50)
	backend := v4Backend(t, f.w)
	for _, tc := range []struct {
		name   string
		ingest func(*Collector, io.Reader) error
		first  []byte
	}{
		{"framed", (*Collector).IngestStream, dictLine(t, dictHead(t, f, backend), 0, "95.0.0.1", 500, 2)},
		{"ipfix", func(c *Collector, r io.Reader) error { return c.IngestIPFIX("ipfix", r) },
			ipfixMessage(t, f, backend, "95.0.0.1", 500, 2, 0, true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col, err := New(Config{
				Index: f.idx, Days: f.w.Days, Opts: f.opts,
				Policy: DropFrame, StallTimeout: 25 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			pr, pw := io.Pipe()
			done := make(chan error, 1)
			go func() { done <- tc.ingest(col, pr) }()
			if _, err := pw.Write(tc.first); err != nil {
				t.Fatal(err)
			}
			// ... and then the exporter hangs forever. Never close pw.
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("stalled stream aborted the study: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("watchdog never fired")
			}
			st := col.Stats()
			if st.StallTimeouts != 1 {
				t.Fatalf("stall timeouts = %d, want 1: %+v", st.StallTimeouts, st)
			}
			_, fc := col.Finalize()
			if got := fc.Study().Downstream(f.w.AliasOf(backend.Provider)).Total(); got != 500*100 {
				t.Fatalf("pre-stall data lost: downstream = %v", got)
			}
		})
	}
}

// TestIPFIXFaultPolicy pins every fault site of a raw IPFIX stream
// under each policy: the error class, the wire counters (totals and
// the stream's own row) and what reaches the study. Two clean messages
// (hours 2 and 3) precede the damage; the undecodable body is followed
// by a third clean message (hour 5), which only DropFrame reaches.
func TestIPFIXFaultPolicy(t *testing.T) {
	f := buildFixture(t, 50)
	backend := v4Backend(t, f.w)
	alias := f.w.AliasOf(backend.Provider)
	m0 := ipfixMessage(t, f, backend, "95.0.0.1", 500, 2, 0, true)
	m1 := ipfixMessage(t, f, backend, "95.0.0.2", 700, 3, 1, false)
	m2 := ipfixMessage(t, f, backend, "95.0.0.3", 1100, 5, 2, false)
	// A length-delimited message whose only set carries a reserved ID.
	undecodable := []byte{0, 10, 0, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 1, 0, 4}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	type want struct {
		err     error // class; nil means ingestion succeeds
		frames  uint64
		records uint64
		dropped uint64
		quar    uint64
		scaled  uint64
		hours   int
	}
	sites := []struct {
		name  string
		feed  []byte
		abort error // the class of Abort's error
		// resumes marks damage confined to one delimited message, which
		// DropFrame drops (a decoded frame) before going on to m2.
		resumes bool
	}{
		{"header-cut", cat(m0, m1, m2[:2]), io.ErrUnexpectedEOF, false},
		{"bad-header", cat(m0, m1, []byte{0, 9, 0, 20}, m2), netflow.ErrBadPayload, false},
		{"body-truncated", cat(m0, m1, m2[:len(m2)-3]), io.ErrUnexpectedEOF, false},
		{"undecodable-body", cat(m0, m1, undecodable, m2), netflow.ErrTemplated, true},
	}
	for _, site := range sites {
		// Up to the damage every policy has decoded m0 and m1. IPFIX rows
		// pend until EOF, so an aborted stream folds nothing.
		seen := want{frames: 2, records: 2, hours: 2}
		kept := seen
		kept.dropped, kept.scaled = 1, (500+700)*100
		if site.resumes {
			seen.frames++
			kept.frames, kept.records, kept.hours = 4, 3, 3
			kept.scaled += 1100 * 100
		}
		abort, quar := seen, seen
		abort.err = site.abort
		quar.quar, quar.hours = 1, 0
		for _, tc := range []struct {
			pol  ErrorPolicy
			want want
		}{{Abort, abort}, {DropFrame, kept}, {QuarantineStream, quar}} {
			t.Run(site.name+"/"+tc.pol.String(), func(t *testing.T) {
				col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts, Policy: tc.pol})
				if err != nil {
					t.Fatal(err)
				}
				err = col.IngestIPFIX("ipfix-feed", bytes.NewReader(site.feed))
				switch {
				case tc.want.err == nil && err != nil:
					t.Fatalf("ingest failed: %v", err)
				case tc.want.err != nil && !errors.Is(err, tc.want.err):
					t.Fatalf("err = %v, want class %v", err, tc.want.err)
				}
				w := tc.want
				wantStats := Stats{
					Streams: 1, Frames: w.frames,
					TemplatePackets: w.records, TemplateRecords: w.records, V4Records: w.records,
					DroppedFrames: w.dropped, QuarantinedStreams: w.quar, ScaledBytes: w.scaled,
				}
				if st := col.Stats(); st != wantStats {
					t.Fatalf("stats = %+v\nwant    %+v", st, wantStats)
				}
				per := col.StreamStats()
				if len(per) != 1 || per[0].Stats != wantStats || per[0].Source != "ipfix-feed" || per[0].HoursCovered != w.hours {
					t.Fatalf("stream stats = %+v, want %+v over %d hours", per, wantStats, w.hours)
				}
				_, fc := col.Finalize()
				if got := fc.Study().Downstream(alias).Total(); got != float64(w.scaled) {
					t.Fatalf("downstream = %v, want %d", got, w.scaled)
				}
			})
		}
	}
}

// errAfter delivers its inner reader, then fails with a transport error
// instead of a clean EOF.
type errAfter struct {
	r   io.Reader
	err error
}

func (e *errAfter) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		err = e.err
	}
	return n, err
}

// splitFrames cuts a framed feed at the k-th frame boundary.
func splitFrames(t *testing.T, feed []byte, k int) (head, tail []byte) {
	t.Helper()
	fr := netflow.NewFrameReader(bytes.NewReader(feed))
	off := 0
	for i := 0; i < k; i++ {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("feed has fewer than %d frames: %v", k, err)
		}
		off += 7 + len(f.Payload)
	}
	return feed[:off], feed[off:]
}

// TestIngestReconnecting: a transport that dies mid-week and comes back
// on redial loses nothing — the analysis matches an unbroken feed and
// the redial is counted.
func TestIngestReconnecting(t *testing.T) {
	f := buildFixture(t, 200)
	feed := f.wireFeed(t, 1)[0]

	colRef, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := colRef.IngestStream(bytes.NewReader(feed)); err != nil {
		t.Fatal(err)
	}
	refCC, refCol := colRef.Finalize()

	head, tail := splitFrames(t, feed, 40)
	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	dial := func(attempt int) (io.Reader, error) {
		switch attempt {
		case 0:
			return &errAfter{r: bytes.NewReader(head), err: fmt.Errorf("connection reset by peer")}, nil
		case 1:
			return nil, fmt.Errorf("connection refused") // flaps once more
		default:
			return bytes.NewReader(tail), nil
		}
	}
	err = col.IngestReconnecting("flaky-feed", dial, ReconnectConfig{
		Seed:  7,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatalf("reconnecting ingest failed: %v", err)
	}
	st := col.Stats()
	if st.Reconnects != 1 {
		t.Fatalf("reconnects = %d, want 1 (redial flaps don't count until a connect succeeds): %+v", st.Reconnects, st)
	}
	if len(slept) != 2 {
		t.Fatalf("backoff sleeps = %d, want 2 (dead transport, then refused dial)", len(slept))
	}
	for i, d := range slept {
		base := 100 * time.Millisecond << i
		if d < base/2 || d > base*3/2 {
			t.Fatalf("sleep %d = %v outside jitter window [%v, %v]", i, d, base/2, base*3/2)
		}
	}
	cc, fc := col.Finalize()
	assertSameAnalysis(t, "reconnect", refCC, cc, refCol, fc)
	if col.StreamStats()[0].Source != "flaky-feed" {
		t.Fatalf("source = %q", col.StreamStats()[0].Source)
	}
}

// TestReconnectGivesUp: once the five redials are exhausted the last
// error surfaces through the normal policy handling — Abort propagates
// it.
func TestReconnectGivesUp(t *testing.T) {
	f := buildFixture(t, 50)
	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	sleeps := 0
	dial := func(attempt int) (io.Reader, error) {
		return nil, fmt.Errorf("no route to host")
	}
	err = col.IngestReconnecting("dead-feed", dial, ReconnectConfig{
		Sleep: func(time.Duration) { sleeps++ },
	})
	if err == nil || !strings.Contains(err.Error(), "no route to host") {
		t.Fatalf("err = %v, want the dial error", err)
	}
	if sleeps != 5 {
		t.Fatalf("backoff sleeps = %d, want 5", sleeps)
	}
}
