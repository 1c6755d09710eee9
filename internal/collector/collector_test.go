package collector

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"iotmap/internal/core/flows"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
	"iotmap/internal/world"
)

type fixture struct {
	w    *world.World
	net  *isp.Network
	idx  *flows.BackendIndex
	opts flows.Options
}

func buildFixture(t testing.TB, lines int) *fixture {
	t.Helper()
	w, err := world.Build(world.Config{Seed: 23, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	n, err := isp.NewNetwork(isp.Config{Seed: 23, Lines: lines}, w)
	if err != nil {
		t.Fatal(err)
	}
	idx := flows.NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, s.Class.CertVisible())
	}
	return &fixture{w: w, net: n, idx: idx, opts: flows.Options{
		ScannerThreshold: 100,
		SamplingRate:     n.Cfg.SamplingRate,
		FocusAlias:       "T1",
		FocusRegion:      "us-east-1",
	}}
}

// memoryRun is the in-memory reference pipeline.
func (f *fixture) memoryRun(shards int) (*flows.ContactCounter, *flows.Collector) {
	agg := flows.NewShardedAggregator(f.idx, f.w.Days, f.opts, shards)
	f.net.SimulateLines(agg.Shards(),
		func(shard int) func(netflow.Record) { return agg.Shard(shard).Ingest },
		func(shard int, _ *isp.Line) { agg.Shard(shard).EndLine() },
	)
	return agg.Merge()
}

// wireRun exports over in-memory pipes into a collector.
func (f *fixture) wireRun(t testing.TB, streams int) (*flows.ContactCounter, *flows.Collector, Stats) {
	t.Helper()
	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([]*bytes.Buffer, streams)
	writers := make([]io.Writer, streams)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		writers[i] = bufs[i]
	}
	if _, err := f.net.SimulateLinesToWire(writers, 0); err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, streams)
	for i := range bufs {
		readers[i] = bufs[i]
	}
	if err := col.IngestStreams(readers); err != nil {
		t.Fatal(err)
	}
	cc, fc := col.Finalize()
	return cc, fc, col.Stats()
}

// assertSameAnalysis compares the analyses that feed the figures.
func assertSameAnalysis(t *testing.T, label string, ccA, ccB *flows.ContactCounter, colA, colB *flows.Collector) {
	t.Helper()
	curveA := ccA.Curve([]int{10, 50, 100, 500})
	curveB := ccB.Curve([]int{10, 50, 100, 500})
	for i := range curveA {
		if curveA[i] != curveB[i] {
			t.Fatalf("%s: scanner curve drifted at %d: %+v vs %+v", label, i, curveA[i], curveB[i])
		}
	}
	sA, sB := colA.Study(), colB.Study()
	aliasesA, aliasesB := sA.Aliases(), sB.Aliases()
	if strings.Join(aliasesA, ",") != strings.Join(aliasesB, ",") {
		t.Fatalf("%s: aliases %v vs %v", label, aliasesA, aliasesB)
	}
	for _, alias := range aliasesA {
		if a, b := sA.Downstream(alias).Total(), sB.Downstream(alias).Total(); a != b {
			t.Fatalf("%s: %s downstream %v vs %v", label, alias, a, b)
		}
		if a, b := sA.Upstream(alias).Total(), sB.Upstream(alias).Total(); a != b {
			t.Fatalf("%s: %s upstream %v vs %v", label, alias, a, b)
		}
		if a, b := sA.ActiveLines(alias).Total(), sB.ActiveLines(alias).Total(); a != b {
			t.Fatalf("%s: %s active lines %v vs %v", label, alias, a, b)
		}
		a4, a6 := sA.Visibility(alias)
		b4, b6 := sB.Visibility(alias)
		if a4 != b4 || a6 != b6 {
			t.Fatalf("%s: %s visibility (%v,%v) vs (%v,%v)", label, alias, a4, a6, b4, b6)
		}
	}
	da, ua := sA.DailyECDFs()
	db, ub := sB.DailyECDFs()
	if da.Len() != db.Len() || ua.Len() != ub.Len() {
		t.Fatalf("%s: daily ECDF sizes differ", label)
	}
	if sA.FocusDownAll.Total() != sB.FocusDownAll.Total() {
		t.Fatalf("%s: focus series differ", label)
	}
}

// TestWireMatchesMemoryAcrossStreamCounts: the headline property at
// package level — ingesting the exported packet streams reproduces the
// in-memory aggregation exactly, for 1, 3, and 8 concurrent streams.
func TestWireMatchesMemoryAcrossStreamCounts(t *testing.T) {
	f := buildFixture(t, 500)
	ccRef, colRef := f.memoryRun(4)
	for _, streams := range []int{1, 3, 8} {
		f2 := buildFixture(t, 500)
		ccW, colW, stats := f2.wireRun(t, streams)
		assertSameAnalysis(t, "streams", ccRef, ccW, colRef, colW)
		if stats.Streams != uint64(streams) {
			t.Fatalf("streams = %d, want %d", stats.Streams, streams)
		}
		if stats.V4Records == 0 || stats.V6Records == 0 || stats.Flushes == 0 {
			t.Fatalf("stats incomplete: %+v", stats)
		}
		if stats.SaturatedCounters != 0 || stats.RateMismatches != 0 || stats.BadPackets != 0 {
			t.Fatalf("unexpected wire damage: %+v", stats)
		}
		if stats.ScaledBytes == 0 {
			t.Fatal("no scaled volume — the sampling rate was never restored")
		}
	}
}

// TestStreamWithoutFlushMarkers: a feed with no line-batch markers
// classifies at EOF and still reproduces the same analysis (each line's
// records must just stay within one stream).
func TestStreamWithoutFlushMarkers(t *testing.T) {
	f := buildFixture(t, 300)
	ccRef, colRef := f.memoryRun(2)

	f2 := buildFixture(t, 300)
	bufs := make([]*bytes.Buffer, 2)
	writers := make([]io.Writer, 2)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		writers[i] = bufs[i]
	}
	if _, err := f2.net.SimulateLinesToWire(writers, 0); err != nil {
		t.Fatal(err)
	}
	// Strip every flush frame.
	readers := make([]io.Reader, 2)
	for i, buf := range bufs {
		var stripped []byte
		fr := netflow.NewFrameReader(buf)
		for {
			fme, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if fme.Type == netflow.FrameFlush {
				continue
			}
			if stripped, err = netflow.AppendFrame(stripped, fme.Type, fme.Payload); err != nil {
				t.Fatal(err)
			}
		}
		readers[i] = bytes.NewReader(stripped)
	}
	col, err := New(Config{Index: f2.idx, Days: f2.w.Days, Opts: f2.opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.IngestStreams(readers); err != nil {
		t.Fatal(err)
	}
	ccW, colW := col.Finalize()
	assertSameAnalysis(t, "no-flush", ccRef, ccW, colRef, colW)
	if col.Stats().Flushes != 0 {
		t.Fatalf("flushes = %d after stripping", col.Stats().Flushes)
	}
}

// TestListenTCP: the collector ingests over real TCP connections.
func TestListenTCP(t *testing.T) {
	f := buildFixture(t, 300)
	ccRef, colRef := f.memoryRun(2)

	f2 := buildFixture(t, 300)
	col, err := New(Config{Index: f2.idx, Days: f2.w.Days, Opts: f2.opts})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const streams = 3
	done := make(chan error, 1)
	go func() { done <- col.ListenTCP(l, streams) }()

	conns := make([]io.Writer, streams)
	for i := range conns {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	if _, err := f2.net.SimulateLinesToWire(conns, 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		c.(net.Conn).Close()
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("collector did not finish")
	}
	ccW, colW := col.Finalize()
	assertSameAnalysis(t, "tcp", ccRef, ccW, colRef, colW)
}

// TestListenTCPCorruptStream: one corrupt feed among healthy ones must
// not wedge anything — the collector aborts that connection (unblocking
// the exporter behind it), the healthy streams complete, and the error
// is reported. Regression test for the backpressure deadlock.
func TestListenTCPCorruptStream(t *testing.T) {
	f := buildFixture(t, 300)
	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const streams = 3
	done := make(chan error, 1)
	go func() { done <- col.ListenTCP(l, streams) }()

	conns := make([]net.Conn, streams)
	for i := range conns {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	// Poison stream 0 before the export starts, then export the healthy
	// feed into all three: stream 0's exporter shard hits a dead socket
	// mid-week and must drain rather than stall the simulation.
	if _, err := conns[0].Write([]byte("XXnot a frame, just noise")); err != nil {
		t.Fatal(err)
	}
	writers := make([]io.Writer, streams)
	for i, c := range conns {
		writers[i] = c
	}
	// The export must complete either way: once the collector closes the
	// poisoned connection, shard 0's writes fail (reported) or land in
	// already-buffered socket space (small feeds) — never a stall.
	if _, err := f.net.SimulateLinesToWire(writers, 0); err != nil {
		t.Logf("exporter saw the dead stream: %v", err)
	}
	for _, c := range conns {
		c.Close()
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "bad frame magic") {
			t.Fatalf("collect err = %v, want bad frame magic", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: collector never finished after a corrupt stream")
	}
	// The two healthy shards' lines are all present in the analysis.
	cc, _ := col.Finalize()
	if len(cc.Scanners(0)) == 0 {
		t.Fatal("healthy streams contributed nothing")
	}
}

// TestServeUDP: raw v5 datagrams, per-source shards, tolerant decode.
func TestServeUDP(t *testing.T) {
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

	// One real backend so records classify.
	var backend *world.Server
	for _, s := range f.w.AllServers() {
		if !s.IsV6() {
			backend = s
			break
		}
	}
	if backend == nil {
		t.Fatal("no v4 backend in fixture")
	}
	si, err := netflow.PackSamplingInterval(100)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(line string, bytes uint64) []byte {
		pkt, err := netflow.EncodeV5(netflow.V5Header{SamplingInterval: si}, []netflow.Record{{
			Src: backend.Addr, Dst: netip.MustParseAddr(line),
			SrcPort: 8883, DstPort: 40000, Proto: netflow.ProtoTCP,
			Bytes: bytes, Packets: 3, Start: f.w.Days[0].Add(2 * time.Hour),
		}})
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}
	src1, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer src1.Close()
	src2, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	if _, err := src1.Write(mk("95.0.0.1", 500)); err != nil {
		t.Fatal(err)
	}
	if _, err := src2.Write(mk("95.0.0.2", 700)); err != nil {
		t.Fatal(err)
	}
	if _, err := src1.Write([]byte{0, 5, 0, 9, 1}); err != nil { // corrupt
		t.Fatal(err)
	}
	// UDP delivery is async: poll the live counters before closing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := col.Stats()
		if st.V4Records == 2 && st.BadPackets == 1 {
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
	if st.Streams != 2 {
		t.Fatalf("streams = %d, want 2 (one per source)", st.Streams)
	}
	if st.V4Records != 2 || st.BadPackets != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ScaledBytes != (500+700)*100 {
		t.Fatalf("scaled bytes = %d", st.ScaledBytes)
	}
	cc, fc := col.Finalize()
	if len(cc.Scanners(0)) != 2 {
		t.Fatalf("scanner sweep at 0 should see both lines, got %d", len(cc.Scanners(0)))
	}
	if fc.Study().Downstream(f.w.AliasOf(backend.Provider)).Total() != (500+700)*100 {
		t.Fatalf("downstream = %v", fc.Study().Downstream(f.w.AliasOf(backend.Provider)).Total())
	}
}

// TestIngestCorruptStream: framing damage fails loudly.
func TestIngestCorruptStream(t *testing.T) {
	f := buildFixture(t, 50)
	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.IngestStream(bytes.NewReader([]byte("XX garbage"))); err == nil {
		t.Fatal("garbage stream accepted")
	}
	// A truncated but well-started stream also errors descriptively.
	full := dictLine(t, dictHead(t, f, v4Backend(t, f.w)), 0, "95.0.0.1", 500, 2)
	err = col.IngestStream(bytes.NewReader(full[:len(full)-3]))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated stream err = %v", err)
	}
}

// TestLiveCountersOpenStream: a stream publishes its counters while it
// is still open. Once the exporter's bytes are read, the open stream's
// row already shows every decoded frame, batch row and covered hour —
// with Streams still 0, here and in the totals — and closing the feed
// only settles it: the final counters equal a one-shot ingest of the
// same bytes.
func TestLiveCountersOpenStream(t *testing.T) {
	f := buildFixture(t, 50)
	var buf bytes.Buffer
	if _, err := f.net.SimulateLinesToWire([]io.Writer{&buf}, 0); err != nil {
		t.Fatal(err)
	}
	feed := buf.Bytes()
	ref, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.IngestStream(bytes.NewReader(feed)); err != nil {
		t.Fatal(err)
	}
	refStats, refRow := ref.Stats(), ref.StreamStats()[0]
	if refStats.DictEntries == 0 || refStats.BatchFrames == 0 || refStats.Flushes == 0 {
		t.Fatalf("feed lacks dictionary, batch or flush frames: %+v", refStats)
	}

	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	writers, wait := col.IngestPipes(1)
	if _, err := writers[0].Write(feed); err != nil {
		t.Fatal(err)
	}
	// The pipe stays open: the stream has read everything and waits.
	deadline := time.Now().Add(10 * time.Second)
	for {
		per := col.StreamStats()
		if len(per) == 1 && per[0].Frames == refStats.Frames {
			row := per[0]
			if row.BatchRecords == 0 || row.HoursCovered == 0 {
				t.Fatalf("open stream shows no rows or hours: %+v", row)
			}
			if row.Streams != 0 || col.Stats().Streams != 0 {
				t.Fatalf("open stream counted as ended: row %d, total %d", row.Streams, col.Stats().Streams)
			}
			live := refRow.Stats
			live.Streams = 0
			if row.Stats != live || !slices.Equal(row.HourBits, refRow.HourBits) {
				t.Fatalf("open stream row %+v (%d hours)\nwant %+v (%d hours)", row.Stats, row.HoursCovered, live, refRow.HoursCovered)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("open stream never published its counters: %+v", per)
		}
		time.Sleep(time.Millisecond)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	row := col.StreamStats()[0]
	if row.Streams != 1 || col.Stats() != refStats || row.Stats != refRow.Stats {
		t.Fatalf("settled stream %+v, totals %+v\nwant %+v", row.Stats, col.Stats(), refStats)
	}
}

// statsLE reports whether every counter of a is at most b's.
func statsLE(a, b Stats) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Uint() > vb.Field(i).Uint() {
			return false
		}
	}
	return true
}

// spinReaders polls Stats and StreamStats from two goroutines until
// stop is called. Counters only grow, so each reading must lie between
// the one before it and the one after: the per-stream sum read first
// is at most the totals read next, which are at most the next sum.
func spinReaders(t *testing.T, col *Collector) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	errs := make(chan string, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev Stats
			for {
				select {
				case <-done:
					return
				default:
				}
				var sum Stats
				for _, ss := range col.StreamStats() {
					sum.add(ss.Stats)
				}
				total := col.Stats()
				if !statsLE(prev, sum) || !statsLE(sum, total) {
					errs <- fmt.Sprintf("counters went backwards: %+v, then sum %+v, then totals %+v", prev, sum, total)
					return
				}
				prev = total
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
		select {
		case e := <-errs:
			t.Fatal(e)
		default:
		}
	}
}

// assertBreakdownSums checks that the settled per-stream rows add up to
// the totals.
func assertBreakdownSums(t *testing.T, col *Collector) {
	t.Helper()
	var sum Stats
	for _, ss := range col.StreamStats() {
		sum.add(ss.Stats)
	}
	if total := col.Stats(); sum != total {
		t.Fatalf("per-stream sum %+v != totals %+v", sum, total)
	}
}

// TestStreamStatsBreakdown: the per-stream Stats breakdown must sum to
// the global counters and attribute every feed to its vantage and
// source label — the "which feed is corrupt" satellite. Readers spin
// on Stats and StreamStats throughout a 4-stream ingest and a UDP feed.
func TestStreamStatsBreakdown(t *testing.T) {
	f := buildFixture(t, 600)
	f.opts.Vantage = "isp-test"
	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	const streams = 4
	bufs := make([]*bytes.Buffer, streams)
	writers := make([]io.Writer, streams)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		writers[i] = bufs[i]
	}
	if _, err := f.net.SimulateLinesToWire(writers, 0); err != nil {
		t.Fatal(err)
	}
	names := []string{"feed-a", "feed-b", "feed-c", "feed-d"}
	readers := make([]io.Reader, streams)
	for i := range bufs {
		readers[i] = bufs[i]
	}
	stop := spinReaders(t, col)
	if err := col.IngestNamedStreams(names, readers); err != nil {
		t.Fatal(err)
	}
	stop()
	per := col.StreamStats()
	if len(per) != streams {
		t.Fatalf("stream stats = %d entries, want %d", len(per), streams)
	}
	seen := map[string]bool{}
	for i, ss := range per {
		if ss.Stream != i {
			t.Fatalf("stream stats out of accept order: %d at %d", ss.Stream, i)
		}
		if ss.Vantage != "isp-test" {
			t.Fatalf("stream %d vantage = %q", ss.Stream, ss.Vantage)
		}
		seen[ss.Source] = true
		if ss.Streams != 1 || ss.Frames == 0 || ss.V4Records == 0 {
			t.Fatalf("stream %d stats degenerate: %+v", ss.Stream, ss.Stats)
		}
	}
	for _, name := range names {
		if !seen[name] {
			t.Fatalf("source %q missing from breakdown %v", name, per)
		}
	}
	assertBreakdownSums(t, col)

	// A UDP feed's sources publish per datagram the same way.
	udp, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- udp.ServeUDP(pc) }()
	stop = spinReaders(t, udp)
	backend := v4Backend(t, f.w)
	const datagrams = 40
	for s := 0; s < 2; s++ {
		src, err := net.Dial("udp", pc.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		for i := 0; i < datagrams; i++ {
			pkt := v5Packet(t, f, backend, fmt.Sprintf("95.0.%d.%d", s, i), 500, i%100)
			if i%10 == 9 {
				pkt = pkt[:5] // undecodable
			}
			if _, err := src.Write(pkt); err != nil {
				t.Fatal(err)
			}
		}
	}
	// UDP may drop datagrams on a busy box: wait for all of them, but
	// settle for what arrived once the deadline passes.
	deadline := time.Now().Add(5 * time.Second)
	for st := udp.Stats(); st.V5Packets+st.BadPackets < 2*datagrams && time.Now().Before(deadline); st = udp.Stats() {
		time.Sleep(5 * time.Millisecond)
	}
	pc.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	stop()
	if st := udp.Stats(); st.Streams != 2 || st.V4Records == 0 || st.BadPackets == 0 {
		t.Fatalf("udp stats = %+v", st)
	}
	assertBreakdownSums(t, udp)

	// A corrupt feed is attributable: a fresh collector fed one good and
	// one truncated stream reports the error stream's partial counters
	// under its own label.
	col2, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	good := &bytes.Buffer{}
	if _, err := f.net.SimulateLinesToWire([]io.Writer{good}, 0); err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.NewReader(good.Bytes()[:good.Len()/2])
	if err := col2.IngestNamedStreams(
		[]string{"good", "corrupt"},
		[]io.Reader{bytes.NewReader(good.Bytes()), corrupt},
	); err == nil {
		t.Fatal("truncated stream accepted")
	}
	for _, ss := range col2.StreamStats() {
		if ss.Source == "corrupt" && ss.Frames == 0 {
			t.Fatal("corrupt stream's pre-error counters lost")
		}
	}
}

// TestPartialsHandoff: Partials drains the collector for a federated
// merge — the partials carry the vantage tag, reproduce the same
// analysis, and the drained collector finalizes empty.
func TestPartialsHandoff(t *testing.T) {
	f := buildFixture(t, 600)
	f.opts.Vantage = "vp-wire"
	memCC, memCol := f.memoryRun(4)

	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	buf := &bytes.Buffer{}
	if _, err := f.net.SimulateLinesToWire([]io.Writer{buf}, 0); err != nil {
		t.Fatal(err)
	}
	if err := col.IngestStream(buf); err != nil {
		t.Fatal(err)
	}
	parts := col.Partials()
	if len(parts) != 1 || parts[0].Vantage != "vp-wire" {
		t.Fatalf("partials = %d entries, vantage %q", len(parts), parts[0].Vantage)
	}
	fed := flows.FederatedMerge(parts)
	assertSameAnalysis(t, "partials-handoff", fed.CC["vp-wire"], memCC, fed.Col["vp-wire"], memCol)

	emptyCC, emptyCol := col.Finalize()
	if len(emptyCC.Scanners(0)) != 0 || len(emptyCol.Study().Aliases()) != 0 {
		t.Fatal("drained collector finalized non-empty aggregates")
	}
}
