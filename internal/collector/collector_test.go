package collector

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"iotmap/internal/core/flows"
	"iotmap/internal/iotserver"
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
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, certVisible(s.Class))
	}
	return &fixture{w: w, net: n, idx: idx, opts: flows.Options{
		ScannerThreshold: 100,
		SamplingRate:     n.Cfg.SamplingRate,
		FocusAlias:       "T1",
		FocusRegion:      "us-east-1",
	}}
}

// memoryRun is memory mode's pipeline, the simulator's rows folded
// into sharded partials as the traffic study does
// (ShardedAggregator.Simulate): the reference every transport matches.
func (f *fixture) memoryRun(shards int) (*flows.ContactCounter, *flows.Collector) {
	agg := flows.NewShardedAggregator(f.idx, f.w.Days, f.opts, shards)
	agg.Simulate(f.net)
	return agg.Merge()
}

// wireFeed exports the fixture's week as framed dictionary streams, one
// per exporter shard.
func (f *fixture) wireFeed(t testing.TB, streams int) [][]byte {
	t.Helper()
	bufs := make([]*bytes.Buffer, streams)
	writers := make([]io.Writer, streams)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		writers[i] = bufs[i]
	}
	if _, err := f.net.SimulateLinesToWire(writers, 0); err != nil {
		t.Fatal(err)
	}
	feeds := make([][]byte, streams)
	for i, b := range bufs {
		feeds[i] = b.Bytes()
	}
	return feeds
}

// feedReaders opens a reader on each feed.
func feedReaders(feeds [][]byte) []io.Reader {
	rs := make([]io.Reader, len(feeds))
	for i, feed := range feeds {
		rs[i] = bytes.NewReader(feed)
	}
	return rs
}

// curveThresholds is the Figure 5 sweep, plus the scanner thresholds
// the tests configure.
var curveThresholds = []int{5, 10, 50, 100, 500}

// assertSameAnalysis compares two analyses on everything the figures
// read: the Figure 5 curve, the scanner set at each threshold of its
// sweep, and every Study accessor at full precision (studyText).
func assertSameAnalysis(t *testing.T, label string, ccA, ccB *flows.ContactCounter, colA, colB *flows.Collector) {
	t.Helper()
	if a, b := ccA.Curve(curveThresholds), ccB.Curve(curveThresholds); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: scanner curve %+v vs %+v", label, a, b)
	}
	for _, th := range curveThresholds {
		if !maps.Equal(ccA.Scanners(th), ccB.Scanners(th)) {
			t.Fatalf("%s: scanner sets differ at threshold %d", label, th)
		}
	}
	if a, b := studyText(colA.Study()), studyText(colB.Study()); a != b {
		al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
		i := 0
		for i < len(al) && i < len(bl) && al[i] == bl[i] {
			i++
		}
		t.Fatalf("%s: studies differ from line %d of their text:\n%.400s\nvs\n%.400s",
			label, i, strings.Join(al[i:], "\n"), strings.Join(bl[i:], "\n"))
	}
}

// studyText renders every Study accessor, keyed by alias and port name,
// so two studies whose line and port IDs were interned in different
// orders render equal exactly when every figure reads them equal.
func studyText(s *flows.Study) string {
	var b strings.Builder
	fmt.Fprintln(&b, s.Hours(), s.Aliases())
	for _, a := range s.Aliases() {
		v4, v6 := s.Visibility(a)
		l4, l6 := s.LineCount(a)
		c4, c6 := s.CertOnlyDecrease(a)
		fmt.Fprintln(&b, a, v4, v6, l4, l6, c4, c6, s.OverallRatio(a), s.PortShares(a))
		fmt.Fprintln(&b, s.ActiveLines(a), s.Downstream(a), s.Upstream(a), s.AliasDailyECDF(a))
	}
	for _, p := range s.TopPorts(1 << 20) {
		fmt.Fprintln(&b, p, s.PortDailyECDF(p))
	}
	down, up := s.DailyECDFs()
	fmt.Fprintln(&b, down, up, s.BackendVolumes())
	fmt.Fprintln(&b, s.LineContinentShares(), s.ServerContinentShares(), s.TrafficContinentShares())
	fmt.Fprintln(&b, s.FocusDownAll, s.FocusDownRegion, s.FocusDownEU)
	fmt.Fprintln(&b, s.FocusLinesAll, s.FocusLinesRegion, s.FocusLinesEU)
	return b.String()
}

// matrixCell is one transport of the determinism matrix: how the
// fixture's week reaches the analysis, over how many streams (exporter
// or aggregator shards), and whether a whole-study window aggregates it.
type matrixCell struct {
	feed    string // "records", "dict", "files" or "ipfix"
	streams int
	window  bool
}

func (c matrixCell) String() string {
	s := fmt.Sprintf("%s-%d", c.feed, c.streams)
	if c.window {
		s += "-window"
	}
	return s
}

// run delivers the fixture's week through the cell's transport. The
// record drive, memory mode's record adapters (Ingest/EndLine), has no
// collector and returns nil for it.
func (c matrixCell) run(t *testing.T, f *fixture) (*flows.ContactCounter, *flows.Collector, *Collector) {
	t.Helper()
	if c.feed == "records" {
		agg := flows.NewShardedAggregator(f.idx, f.w.Days, f.opts, c.streams)
		f.net.SimulateLines(agg.Shards(),
			func(shard int) func(netflow.Record) { return agg.Shard(shard).Ingest },
			func(shard int, _ *isp.Line) { agg.Shard(shard).EndLine() },
		)
		cc, fc := agg.Merge()
		return cc, fc, nil
	}
	cfg := Config{Index: f.idx, Days: f.w.Days, Opts: f.opts}
	if c.window {
		win, err := flows.NewWindow(f.idx, f.w.Days[0], len(f.w.Days)*24, f.windowOpts())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Window = win
	}
	col, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	switch c.feed {
	case "dict":
		err = col.IngestStreams(feedReaders(f.wireFeed(t, c.streams)))
	case "files":
		err = col.IngestFiles(f.exportToFiles(t, c.streams))
	case "ipfix":
		for i, feed := range f.ipfixFeed(t, c.streams) {
			err = errors.Join(err, col.IngestIPFIX(fmt.Sprintf("ipfix-%d", i), bytes.NewReader(feed)))
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	cc, fc := col.Finalize()
	return cc, fc, col
}

// check asserts the counters and retained state the cell's transport
// owes on a clean feed.
func (c matrixCell) check(t *testing.T, col *Collector) {
	t.Helper()
	st := col.Stats()
	if st.Streams != uint64(c.streams) {
		t.Fatalf("streams = %d, want %d", st.Streams, c.streams)
	}
	if st.V4Records == 0 || st.V6Records == 0 || st.ScaledBytes == 0 {
		t.Fatalf("records or scaled volume missing (the sampling rate was never restored?): %+v", st)
	}
	if st.V5Packets+st.SaturatedCounters+st.RateMismatches+st.BadPackets+st.DroppedFrames+
		st.ResyncEvents+st.StallTimeouts+st.Reconnects+st.QuarantinedStreams != 0 {
		t.Fatalf("clean feed reported v5 packets or damage: %+v", st)
	}
	dicts := 0
	if c.feed == "ipfix" {
		if st.TemplatePackets == 0 || st.TemplateRecords == 0 {
			t.Fatalf("no templated traffic counted: %+v", st)
		}
	} else {
		if st.BatchFrames == 0 || st.DictEntries == 0 || st.Flushes == 0 {
			t.Fatalf("framed streams carried no dictionary batches or flushes: %+v", st)
		}
		if c.window {
			dicts = c.streams
		}
	}
	if n := len(col.DictStates()); n != dicts {
		t.Fatalf("retained %d dictionary states, want %d", n, dicts)
	}
	if c.window && col.Partials() != nil {
		t.Fatal("window mode handed over partials")
	}
}

// matrixRef is one scanner threshold's fixture and memory mode's
// analysis of it, the reference its matrix cells match.
type matrixRef struct {
	f   *fixture
	cc  *flows.ContactCounter
	col *flows.Collector
}

// matrixRefs holds each threshold's reference, built once per test
// binary and shared by every row of the matrix.
var matrixRefs = map[int]*matrixRef{}

// runMatrix runs cells of the determinism matrix: each cell's transport
// reproduces memory mode's analysis exactly, at each scanner threshold
// (at 5 most lines are suspects, so a batch stream's decode half drops
// rows before its fold) and at two procs and one, and owes its
// transport's counters and retained state.
func runMatrix(t *testing.T, thresholds []int, cells ...matrixCell) {
	for _, threshold := range thresholds {
		ref := matrixRefs[threshold]
		if ref == nil {
			f := buildFixture(t, 400)
			f.opts.ScannerThreshold = threshold
			cc, col := f.memoryRun(4)
			ref = &matrixRef{f, cc, col}
			matrixRefs[threshold] = ref
		}
		for _, procs := range []int{2, 1} {
			for _, c := range cells {
				t.Run(fmt.Sprintf("threshold=%d/procs=%d/%s", threshold, procs, c), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					cc, fc, col := c.run(t, ref.f)
					assertSameAnalysis(t, c.String(), ref.cc, cc, ref.col, fc)
					if col != nil {
						c.check(t, col)
					}
				})
			}
		}
	}
}

// The matrix's rows. Between them every transport into the collector
// meets memory mode: the record drive, dictionary pipes at 1, 3 and 8
// streams, mmap replay files, IPFIX streams, and a whole-study window
// fed dictionary or IPFIX streams.

// TestDeterminismMatrix: memory mode's record drive and mmap replay
// files at 3 streams.
func TestDeterminismMatrix(t *testing.T) {
	runMatrix(t, []int{100, 5}, matrixCell{feed: "records", streams: 2}, matrixCell{feed: "files", streams: 3})
}

// dictCells are the dictionary pipes at 1, 3 and 8 streams.
var dictCells = []matrixCell{{feed: "dict", streams: 1}, {feed: "dict", streams: 3}, {feed: "dict", streams: 8}}

// TestWireMatchesMemoryAcrossStreamCounts: dictionary pipes at 1, 3 and
// 8 streams, at the study's scanner threshold.
func TestWireMatchesMemoryAcrossStreamCounts(t *testing.T) {
	runMatrix(t, []int{100}, dictCells...)
}

// TestDictMatchesMemoryAcrossStreamCounts: the same pipes at threshold
// 5, where the decode half drops most lines' rows before the fold.
func TestDictMatchesMemoryAcrossStreamCounts(t *testing.T) {
	runMatrix(t, []int{5}, dictCells...)
}

// TestIPFIXRoundTripMatchesMemory: templated IPFIX at 2 streams.
func TestIPFIXRoundTripMatchesMemory(t *testing.T) {
	runMatrix(t, []int{100, 5}, matrixCell{feed: "ipfix", streams: 2})
}

// TestWindowModeMatchesBatchWire: a whole-study window fed 1 and 4
// dictionary streams and 2 IPFIX streams.
func TestWindowModeMatchesBatchWire(t *testing.T) {
	runMatrix(t, []int{100, 5},
		matrixCell{feed: "dict", streams: 1, window: true},
		matrixCell{feed: "dict", streams: 4, window: true},
		matrixCell{feed: "ipfix", streams: 2, window: true},
	)
}

// TestStreamWithoutFlushMarkers: a feed with no line-batch markers
// classifies at EOF and still reproduces the same analysis (each line's
// records must just stay within one stream).
func TestStreamWithoutFlushMarkers(t *testing.T) {
	f := buildFixture(t, 300)
	ccRef, colRef := f.memoryRun(2)

	// Strip every flush frame.
	feeds := f.wireFeed(t, 2)
	for i, feed := range feeds {
		var stripped []byte
		fr := netflow.NewBytesFrameReader(feed)
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
		feeds[i] = stripped
	}
	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.IngestStreams(feedReaders(feeds)); err != nil {
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

	conns := make([]io.Writer, streams)
	for i := range conns {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	if _, err := f.net.SimulateLinesToWire(conns, 0); err != nil {
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
	const si = 1<<14 | 100 // sampled 1:100
	mk := func(line string, bytes uint64) []byte {
		pkt, _, err := netflow.EncodeV5Clamped(netflow.V5Header{SamplingInterval: si}, []netflow.Record{{
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
	feed := f.wireFeed(t, 1)[0]
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
				// On one proc a reader spinning on counters that cannot move
				// holds the P for its whole time slice; once a poll shows no
				// progress it sleeps instead, so the ingest can run.
				if total == prev && runtime.GOMAXPROCS(0) == 1 {
					time.Sleep(20 * time.Microsecond)
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
	names := []string{"feed-a", "feed-b", "feed-c", "feed-d"}
	stop := spinReaders(t, col)
	if err := col.IngestNamedStreams(names, feedReaders(f.wireFeed(t, streams))); err != nil {
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
	good := f.wireFeed(t, 1)[0]
	if err := col2.IngestNamedStreams(
		[]string{"good", "corrupt"},
		feedReaders([][]byte{good, good[:len(good)/2]}),
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
	if err := col.IngestStream(bytes.NewReader(f.wireFeed(t, 1)[0])); err != nil {
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

// IngestStream is IngestNamedStream with the accept-order label.
func (c *Collector) IngestStream(r io.Reader) error {
	return c.IngestNamedStream("", r)
}

// IngestStreams ingests every reader concurrently and returns the first
// stream error. A failed stream's reader is aborted (closed or drained)
// so the exporter behind it unblocks and the healthy streams still run
// to completion.
func (c *Collector) IngestStreams(readers []io.Reader) error {
	return c.IngestNamedStreams(make([]string, len(readers)), readers)
}

// IngestNamedStreams is IngestStreams with per-reader source labels for
// the Stats breakdown; names and readers must be the same length.
func (c *Collector) IngestNamedStreams(names []string, readers []io.Reader) error {
	if len(names) != len(readers) {
		return fmt.Errorf("collector: %d names for %d readers", len(names), len(readers))
	}
	errs := make([]error, len(readers))
	base := c.reserveStreams(len(readers))
	var wg sync.WaitGroup
	for i, r := range readers {
		wg.Add(1)
		go func(i int, r io.Reader) {
			defer wg.Done()
			if err := c.ingestIndexed(base+i, names[i], r); err != nil {
				errs[i] = err
				abortReader(r, err)
			}
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("collector: stream %d: %w", i, err)
		}
	}
	return nil
}

// IngestFile replays one recorded framed stream from disk, as
// IngestFiles does for each of its paths.
func (c *Collector) IngestFile(path string) error {
	return c.ingestFileAt(c.reserveStreams(1), path)
}

// certVisible is the ground-truth index's cert flag: whether a certless
// IPv4-wide scan can pull a default certificate from a server of class c.
func certVisible(c *world.ServerClass) bool {
	return slices.ContainsFunc(c.Endpoints, func(ep world.EndpointSpec) bool {
		return ep.Protocol.TLSCapable() && ep.Policy == iotserver.PolicyDefaultCert
	})
}
