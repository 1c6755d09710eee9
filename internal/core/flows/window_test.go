package flows

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/netip"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"iotmap/internal/geo"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
)

// windowThresholds is the Figure 5 sweep the window tests compare on.
var windowThresholds = []int{10, 50, 100, 500, 1000}

// assertWindowEquals pins a counter/collector pair (a window's merged
// state, or any other drive's) against a reference pair on every
// comparison surface the dense tests use: the named study, the raw
// contact sets, the scanner set, and the Figure 5 curve.
func assertWindowEquals(t *testing.T, cc *ContactCounter, col *Collector, refCC *ContactCounter, refCol *Collector, threshold int) {
	t.Helper()
	if !reflect.DeepEqual(named(col.Study()), named(refCol.Study())) {
		t.Error("study differs from the reference")
	}
	if !reflect.DeepEqual(cc.contactSets(), refCC.contactSets()) {
		t.Error("contact sets differ from the reference")
	}
	if !reflect.DeepEqual(cc.Scanners(threshold), refCC.Scanners(threshold)) {
		t.Error("scanner set differs from the reference")
	}
	if !reflect.DeepEqual(cc.Curve(windowThresholds), refCC.Curve(windowThresholds)) {
		t.Error("curve differs from the reference")
	}
}

// flushRecords feeds sink one flush interval of records the way a
// record producer does, as rows resolved through AppendRecord, on
// tables fresh per flush.
func flushRecords(sink Sink, recs []netflow.Record) {
	t := sink.NewWireTables()
	var b netflow.RecordBatch
	for _, r := range recs {
		t.AppendRecord(&b, r)
	}
	sink.IngestBatch(t, &b)
}

// hourFlushes groups a record stream into per-hour flush intervals in
// ascending hour order (pre-epoch records form the leading flush) —
// the flush discipline under which bucket eviction is exact.
func hourFlushes(recs []netflow.Record, epoch time.Time) [][]netflow.Record {
	groups := map[int64][]netflow.Record{}
	for _, r := range recs {
		since := r.Start.Sub(epoch)
		h := int64(since / time.Hour)
		if since < 0 {
			h = -1
		}
		groups[h] = append(groups[h], r)
	}
	hours := make([]int64, 0, len(groups))
	for h := range groups {
		hours = append(hours, h)
	}
	sort.Slice(hours, func(i, j int) bool { return hours[i] < hours[j] })
	out := make([][]netflow.Record, 0, len(groups))
	for _, h := range hours {
		out = append(out, groups[h])
	}
	return out
}

// flushHour returns the (clamped) hour a flush group belongs to.
func flushHour(flush []netflow.Record, epoch time.Time) int64 {
	since := flush[0].Start.Sub(epoch)
	if since < 0 {
		return -1
	}
	return int64(since / time.Hour)
}

// TestWindowWeekMatchesBatch: a whole-week window fed the same
// per-line-week flushes as the sharded pipeline equals the two-pass
// reference — the no-eviction identity that makes the service's
// trailing-week figures trustworthy.
func TestWindowWeekMatchesBatch(t *testing.T) {
	w, refCC, refCol := twoPass(t)
	win, err := NewWindow(cachedIdx, w.Days[0], len(w.Days)*24, studyOpts(cachedNet))
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([][]netflow.Record, testShards)
	cachedNet.SimulateLines(testShards,
		func(shard int) func(netflow.Record) {
			return func(r netflow.Record) { bufs[shard] = append(bufs[shard], r) }
		},
		func(shard int, _ *isp.Line) {
			flushRecords(win, bufs[shard])
			bufs[shard] = bufs[shard][:0]
		},
	)
	if st := win.Stats(); st.EvictedHours != 0 || st.LateRecords != 0 || st.PreWindowRecords != 0 {
		t.Fatalf("whole-week feed should fit the window, got stats %+v", st)
	}
	cc, col := win.Merged()
	assertWindowEquals(t, cc, col, refCC, refCol, 100)
}

// TestWindowEvictionMatchesBatch: the core eviction property — after a
// 5-day hour-aligned feed slid through a 2-day window, the window's
// state is byte-identical to a batch run that never saw the evicted
// hours' flushes at all. Evicted == never ingested.
func TestWindowEvictionMatchesBatch(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f := buildDenseFixture(seed)
		opts := f.opts
		opts.ScannerThreshold = 3
		const windowHours = 48
		epoch := f.days[0]
		win, err := NewWindow(f.idx, epoch, windowHours, opts)
		if err != nil {
			t.Fatal(err)
		}
		flushes := hourFlushes(f.recs, epoch)
		end := flushHour(flushes[len(flushes)-1], epoch)
		for _, flush := range flushes {
			flushRecords(win, flush)
		}
		st := win.Stats()
		if st.EvictedHours == 0 {
			t.Fatalf("seed %d: 5-day feed through a 2-day window must evict", seed)
		}
		if st.PreWindowRecords == 0 {
			t.Fatalf("seed %d: fixture has pre-epoch records, none counted", seed)
		}

		// Batch reference: a partial over the surviving 2-day frame, fed
		// only the surviving hours' flushes.
		ws := end - windowHours + 1
		days := []time.Time{
			epoch.Add(time.Duration(ws) * time.Hour),
			epoch.Add(time.Duration(ws+24) * time.Hour),
		}
		ref := NewShardPartial(f.idx, days, opts)
		for _, flush := range flushes {
			if h := flushHour(flush, epoch); h >= ws && h <= end {
				flushRecords(ref, flush)
			}
		}
		refCC, refCol := MergePartials([]*ShardPartial{ref})
		cc, col := win.Merged()
		assertWindowEquals(t, cc, col, refCC, refCol, opts.ScannerThreshold)
	}
}

// TestWindowLateCountsKeptRows: LateRecords, like EvictedRecords, counts
// only kept rows, so their sum does not depend on the order flushes
// arrive in. Seed 5's hour-12 flush holds a scanner line; fed in hour
// order, its kept rows are evicted later, and fed after the hour-72
// flush, its rows are late. Either way its scanner rows count nowhere.
func TestWindowLateCountsKeptRows(t *testing.T) {
	f := buildDenseFixture(5)
	opts := f.opts
	opts.ScannerThreshold = 3
	epoch := f.days[0]
	var inOrder, h12Last [][]netflow.Record
	var h12 []netflow.Record
	for _, flush := range hourFlushes(f.recs, epoch) {
		inOrder = append(inOrder, flush)
		switch flushHour(flush, epoch) {
		case 12:
			h12 = flush
			continue
		case 72:
			h12Last = append(h12Last, flush, h12)
			continue
		}
		h12Last = append(h12Last, flush)
	}
	var stats []WindowStats
	for _, order := range [][][]netflow.Record{inOrder, h12Last} {
		win, err := NewWindow(f.idx, epoch, 48, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, flush := range order {
			flushRecords(win, flush)
		}
		stats = append(stats, win.Stats())
	}
	if stats[0].LateRecords != 0 || stats[1].LateRecords == 0 {
		t.Fatalf("late records %d in hour order and %d with hour 12 after hour 72, want 0 and some", stats[0].LateRecords, stats[1].LateRecords)
	}
	if a, b := stats[0].LateRecords+stats[0].EvictedRecords, stats[1].LateRecords+stats[1].EvictedRecords; a != b {
		t.Fatalf("late+evicted records %d in hour order, %d with hour 12 after hour 72", a, b)
	}
}

// TestWindowBatchPathMatchesRecordPath: WireTables.AppendRecord makes,
// record for record, the rows a dictionary exporter would have sent —
// pinned against a hand-built record→batch conversion over hand-built
// dictionaries — and the two feeds leave identical windows: figures,
// per-hour fill, and the eviction ledger. Some lines cross the scanner
// threshold in some flushes (contact evidence on both feeds, records on
// neither) and the rest are kept; records with no indexed endpoint make
// no row, records before the epoch make an hour -1 row.
func TestWindowBatchPathMatchesRecordPath(t *testing.T) {
	f := buildDenseFixture(7)
	opts := f.opts
	opts.ScannerThreshold = 3
	const windowHours = 48
	epoch := f.days[0]
	f.idx.Build()

	// Build the stream dictionaries the exporter would have negotiated.
	lineID := map[netip.Addr]uint32{}
	backID := map[netip.Addr]uint32{}
	var lineAddrs, backAddrs []netip.Addr
	for _, r := range f.recs {
		line, beID, _, ok := f.idx.lineSide(r)
		if !ok {
			continue
		}
		if _, seen := lineID[line]; !seen {
			lineID[line] = uint32(len(lineAddrs))
			lineAddrs = append(lineAddrs, line)
		}
		be := f.idx.addrs[beID]
		if _, seen := backID[be]; !seen {
			backID[be] = uint32(len(backAddrs))
			backAddrs = append(backAddrs, be)
		}
	}
	winRec, err := NewWindow(f.idx, epoch, windowHours, opts)
	if err != nil {
		t.Fatal(err)
	}
	winBatch, err := NewWindow(f.idx, epoch, windowHours, opts)
	if err != nil {
		t.Fatal(err)
	}
	tables := winBatch.NewWireTables()
	if err := tables.AddLines(0, lineAddrs); err != nil {
		t.Fatal(err)
	}
	if err := tables.AddBackends(0, backAddrs); err != nil {
		t.Fatal(err)
	}
	recTables := winRec.NewWireTables()

	unindexed, preEpoch, overRows, rows := 0, 0, 0, 0
	for _, flush := range hourFlushes(f.recs, epoch) {
		var b, rb netflow.RecordBatch
		contacts := map[netip.Addr]map[int32]int{} // line → backend → rows
		for _, r := range flush {
			line, beID, down, ok := f.idx.lineSide(r)
			before := rb.Len()
			recTables.AppendRecord(&rb, r)
			if made := rb.Len() > before; made != ok {
				t.Fatalf("AppendRecord made a row = %v for %+v, indexed endpoint = %v", made, r, ok)
			}
			if !ok {
				unindexed++
				continue
			}
			since := r.Start.Sub(epoch)
			h := int32(since / time.Hour)
			if since < 0 {
				h = -1
				preEpoch++
			}
			port := r.SrcPort
			if !down {
				port = r.DstPort
			}
			b.Append(lineID[line], backID[f.idx.addrs[beID]], down, h, port, r.Proto, r.Bytes, r.Packets)
			if contacts[line] == nil {
				contacts[line] = map[int32]int{}
			}
			contacts[line][beID]++
		}
		for _, backs := range contacts {
			n := 0
			for _, c := range backs {
				n += c
			}
			if rows += n; len(backs) > opts.ScannerThreshold {
				overRows += n
			}
		}
		if rb.Len() != b.Len() {
			t.Fatalf("resolver made %d rows, the reference conversion %d", rb.Len(), b.Len())
		}
		for i := 0; i < b.Len(); i++ {
			if recTables.lines[rb.Line[i]].addr != lineAddrs[b.Line[i]] ||
				recTables.backends[rb.Backend[i]] != tables.backends[b.Backend[i]] {
				t.Fatalf("row %d resolves to another line or backend than the reference", i)
			}
		}
		// IDs aside, the columns must be equal.
		noIDs := func(x netflow.RecordBatch) netflow.RecordBatch { x.Line, x.Backend = nil, nil; return x }
		if !reflect.DeepEqual(noIDs(rb), noIDs(b)) {
			t.Fatalf("resolver rows differ from the reference conversion:\n%+v\n%+v", rb, b)
		}
		winRec.IngestBatch(recTables, &rb)
		winBatch.IngestBatch(tables, &b)
	}
	if unindexed == 0 || preEpoch == 0 {
		t.Fatalf("fixture must carry unindexed (%d) and pre-epoch (%d) records", unindexed, preEpoch)
	}
	if overRows == 0 || overRows == rows {
		t.Fatalf("fixture must mix kept and over lines: %d of %d indexed rows are on over lines", overRows, rows)
	}

	ccR, colR := winRec.Merged()
	ccB, colB := winBatch.Merged()
	if !reflect.DeepEqual(named(colB.Study()), named(colR.Study())) {
		t.Error("resolver-fed window study differs from the reference batches' window")
	}
	if !reflect.DeepEqual(ccB.contactSets(), ccR.contactSets()) {
		t.Error("resolver-fed window contact sets differ from the reference batches' window")
	}
	if !reflect.DeepEqual(winRec.BucketStats(), winBatch.BucketStats()) {
		t.Error("per-hour record counts differ between the resolver and the reference batches")
	}
	if st := winRec.Stats(); st.EvictedHours == 0 || st.EvictedRecords == 0 || st.PreWindowRecords == 0 {
		t.Fatalf("5-day feed through a 2-day window must evict and refuse pre-epoch rows, got %+v", st)
	}
	if winRec.Stats() != winBatch.Stats() {
		t.Errorf("stats differ: resolver %+v reference %+v", winRec.Stats(), winBatch.Stats())
	}
}

// TestWindowConcurrentIngest: N goroutines flush disjoint interleaves
// of the same feed into one Window while readers hammer Study, Snapshot,
// and BucketStats the whole time; the final figures must be identical on
// every comparison surface to a sequential feed of the same records.
// Each writer keeps one WireTables across its flushes, as a collector
// stream does, so under -race the classification each stream runs
// outside the window's lock, on its own reused scratch, meets other
// streams' appends and the readers' folds and snapshots. The feed span
// fits inside the window, so nothing evicts and fold order cannot
// matter — any divergence is a real data race or a lost update. Under
// -race this doubles as the lock-order property test for foldMu → mu.
func TestWindowConcurrentIngest(t *testing.T) {
	f := buildDenseFixture(13)
	opts := f.opts
	opts.ScannerThreshold = 3
	// One spare day: the fixture's offsets overshoot the study span by a
	// few hours, and the no-eviction premise must hold for the whole feed.
	windowHours := (len(f.days) + 1) * 24
	epoch := f.days[0]

	seq, err := NewWindow(f.idx, epoch, windowHours, opts)
	if err != nil {
		t.Fatal(err)
	}
	flushes := hourFlushes(f.recs, epoch)
	for _, fl := range flushes {
		flushRecords(seq, fl)
	}
	refCC, refCol := seq.Merged()

	con, err := NewWindow(f.idx, epoch, windowHours, opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for kind := 0; kind < 3; kind++ {
		readers.Add(1)
		go func(kind int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch kind {
				case 0:
					_, s := con.Study()
					_ = s.Hours()
				case 1:
					if err := Snapshot(io.Discard, con); err != nil {
						t.Errorf("snapshot under live ingest: %v", err)
						return
					}
				default:
					_ = con.BucketStats()
					_ = con.Stats()
				}
			}
		}(kind)
	}
	const workers = 8
	var writers sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		writers.Add(1)
		go func(wk int) {
			defer writers.Done()
			tables := con.NewWireTables()
			var b netflow.RecordBatch
			for i := wk; i < len(flushes); i += workers {
				b.Reset()
				for _, r := range flushes[i] {
					tables.AppendRecord(&b, r)
				}
				con.IngestBatch(tables, &b)
			}
		}(wk)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if st := con.Stats(); st.EvictedHours != 0 || st.LateRecords != 0 {
		t.Fatalf("in-window feed must not evict or drop late, got %+v", st)
	}
	if con.Stats() != seq.Stats() {
		t.Errorf("stats differ: concurrent %+v sequential %+v", con.Stats(), seq.Stats())
	}
	cc, col := con.Merged()
	assertWindowEquals(t, cc, col, refCC, refCol, opts.ScannerThreshold)
}

// TestWindowSnapshotRoundTrip: snapshot a half-fed window, restore it,
// feed both the same remainder, and require indistinguishable state —
// including byte-identical re-snapshots (the crash-recovery contract).
func TestWindowSnapshotRoundTrip(t *testing.T) {
	f := buildDenseFixture(11)
	opts := f.opts
	opts.ScannerThreshold = 3
	const windowHours = 48
	epoch := f.days[0]
	win, err := NewWindow(f.idx, epoch, windowHours, opts)
	if err != nil {
		t.Fatal(err)
	}
	flushes := hourFlushes(f.recs, epoch)
	half := len(flushes) / 2
	for _, flush := range flushes[:half] {
		flushRecords(win, flush)
	}

	var buf bytes.Buffer
	if err := Snapshot(&buf, win); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()), f.idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if restored.End() != win.End() || restored.Stats() != win.Stats() {
		t.Fatalf("restored window header differs: end %d/%d stats %+v/%+v",
			restored.End(), win.End(), restored.Stats(), win.Stats())
	}

	for _, flush := range flushes[half:] {
		flushRecords(win, flush)
		flushRecords(restored, flush)
	}
	ccA, colA := win.Merged()
	ccB, colB := restored.Merged()
	if !reflect.DeepEqual(named(colB.Study()), named(colA.Study())) {
		t.Error("restored window study diverged after continued ingest")
	}
	if !reflect.DeepEqual(ccB.contactSets(), ccA.contactSets()) {
		t.Error("restored window contact sets diverged after continued ingest")
	}
	var againA, againB bytes.Buffer
	if err := Snapshot(&againA, win); err != nil {
		t.Fatal(err)
	}
	if err := Snapshot(&againB, restored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(againA.Bytes(), againB.Bytes()) {
		t.Error("re-snapshots of original and restored windows are not byte-identical")
	}
}

// TestWindowSnapshotRefusesMismatch: a snapshot must not restore over a
// different world or different aggregation options.
func TestWindowSnapshotRefusesMismatch(t *testing.T) {
	f := buildDenseFixture(13)
	opts := f.opts
	win, err := NewWindow(f.idx, f.days[0], 48, opts)
	if err != nil {
		t.Fatal(err)
	}
	flushRecords(win, f.recs[:100])
	var buf bytes.Buffer
	if err := Snapshot(&buf, win); err != nil {
		t.Fatal(err)
	}

	other := buildDenseFixture(14)
	if _, err := Restore(bytes.NewReader(buf.Bytes()), other.idx, opts); err == nil {
		t.Error("restore against a different index must fail")
	}
	badOpts := opts
	badOpts.SamplingRate = 999
	if _, err := Restore(bytes.NewReader(buf.Bytes()), f.idx, badOpts); err == nil {
		t.Error("restore under different options must fail")
	}
	if _, err := Restore(bytes.NewReader([]byte("NOPE")), f.idx, opts); err == nil {
		t.Error("restore of garbage must fail")
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	if _, err := Restore(bytes.NewReader(truncated), f.idx, opts); err == nil {
		t.Error("restore of a truncated snapshot must fail")
	}
}

// TestWireTablesSnapshotRoundTrip: dictionary state survives a
// checkpoint, including gap-filled (lost) entries.
func TestWireTablesSnapshotRoundTrip(t *testing.T) {
	f := buildDenseFixture(17)
	win, err := NewWindow(f.idx, f.days[0], 48, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	tables := win.NewWireTables()
	lines := []netip.Addr{isp.LineV4Addr(0, 7), isp.LineV4Addr(0, 9), netip.MustParseAddr("10.1.2.3")}
	if err := tables.AddLines(2, lines); err != nil { // base 2 → two lost entries
		t.Fatal(err)
	}
	backs := append([]netip.Addr{netip.MustParseAddr("203.0.113.9")}, f.idx.addrs[:5]...)
	if err := tables.AddBackends(1, backs); err != nil { // base 1 → one lost entry
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tables.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreWireTables(bytes.NewReader(buf.Bytes()), win)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.lines, tables.lines) {
		t.Errorf("restored lines differ:\n%+v\n%+v", restored.lines, tables.lines)
	}
	if !reflect.DeepEqual(restored.backends, tables.backends) {
		t.Errorf("restored backends differ:\n%v\n%v", restored.backends, tables.backends)
	}
	if len(restored.entSlot) != len(tables.entSlot) {
		t.Errorf("restored entSlot length %d, want %d", len(restored.entSlot), len(tables.entSlot))
	}
	if _, err := RestoreWireTables(bytes.NewReader([]byte("JUNKJUNK")), win); err == nil {
		t.Error("restore of garbage wire tables must fail")
	}
}

// TestWindowRowBytes pins a bucket row at 15 bytes: the element sizes
// of the bucket's row columns. The wide list holds escaped rows only.
func TestWindowRowBytes(t *testing.T) {
	typ := reflect.TypeOf(winBucket{})
	var size uintptr
	for i := range typ.NumField() {
		if fl := typ.Field(i); fl.Type.Kind() == reflect.Slice && fl.Name != "wide" {
			size += fl.Type.Elem().Size()
		}
	}
	if size != 15 {
		t.Fatalf("a bucket row takes %d bytes, want 15", size)
	}
}

// TestWindowWideRows: rows whose raw counter is wideRow or more keep
// their exact volume on every path that reads a row (the rebuild's
// scatter, a catch-up, a slide that evicts their hour, and snapshot →
// restore → continue), at rate 1 and rate 100. Every read equals the
// map reference over the records of the frame's hours. A hand-built
// checkpoint of volumes no counter reproduces restores and re-snapshots
// byte-identically. The 2^40+1 counters run between one dedicated line
// and one backend whose alias and continent nothing else has; the
// counters around 2^32 ride on the fixture's own lines.
//
// A volume of 2^53 or more is past float64's exact integers: sums that
// hold it round, so a slide's subtraction and a catch-up's addition need
// not land where a rebuild's sum does. A window read every hour over a
// feed whose every 50th record carries a 2^53+1 counter must end with
// the bits of a twin read once.
func TestWindowWideRows(t *testing.T) {
	counters := []uint64{1<<32 - 2, 1<<32 - 1, 1 << 32}
	for _, rate := range []uint32{1, 100} {
		f := buildDenseFixture(31)
		opts := f.opts
		opts.SamplingRate = rate
		epoch := f.days[0]
		backend, line := netip.MustParseAddr("102.0.0.9"), isp.LineV4Addr(2, 77)
		f.idx.Add(backend, "W9", geo.Africa, "af-south-1", true)
		f.infos[backend] = refInfo{alias: "W9", cont: geo.Africa, region: "af-south-1", certFound: true}
		for i := range f.recs {
			if i%29 == 0 {
				f.recs[i].Bytes = counters[(i/29)%len(counters)]
			}
		}
		huge := func(h int64, down bool) netflow.Record {
			r := netflow.Record{
				Src: line, Dst: backend, SrcPort: 50000, DstPort: 8883, Proto: netflow.ProtoTCP,
				Bytes: 1<<40 + 1, Start: epoch.Add(time.Duration(h)*time.Hour + time.Minute),
			}
			if down {
				r.Src, r.Dst, r.SrcPort, r.DstPort = r.Dst, r.Src, r.DstPort, r.SrcPort
			}
			return r
		}
		for _, h := range []int64{0, 1, 2, 30, 45, 55, 70} {
			f.recs = append(f.recs, huge(h, true), huge(h, h%2 == 0))
		}
		// The catch-up flush: late rows for hour 20, read before they came.
		late := []netflow.Record{huge(20, true), huge(20, false)}
		for i, r := range f.recs[:600] {
			if r.Start.Sub(epoch)/time.Hour == 20 {
				r.Bytes = counters[i%len(counters)]
				late = append(late, r)
			}
		}
		flushes := hourFlushes(f.recs, epoch)

		var fed []netflow.Record
		feed := func(wins []*Window, recs []netflow.Record) {
			for _, w := range wins {
				flushRecords(w, recs)
			}
			fed = append(fed, recs...)
		}
		feedTo := func(wins []*Window, last int64) {
			for len(flushes) > 0 && flushHour(flushes[0], epoch) <= last {
				feed(wins, flushes[0])
				flushes = flushes[1:]
			}
		}
		check := func(win *Window, step string) {
			t.Helper()
			ws := win.startHour(win.End())
			ref := newRefCollector(f.infos, win.frameDays(ws), opts)
			for _, r := range fed {
				ref.ingest(r)
			}
			if _, st := win.Study(); !reflect.DeepEqual(named(st), ref.study(f.idx)) {
				t.Fatalf("rate %d, %s: window study differs from the map reference", rate, step)
			}
		}

		win, err := NewWindow(f.idx, epoch, 48, opts)
		if err != nil {
			t.Fatal(err)
		}
		feedTo([]*Window{win}, 40)
		wide := 0
		win.eachBucket(0, win.End()+1, func(bk *winBucket) { wide += len(bk.wide) })
		if wide == 0 {
			t.Fatalf("rate %d: no row took the escape", rate)
		}
		check(win, "rebuild")
		feed([]*Window{win}, late)
		check(win, "catch-up")
		feedTo([]*Window{win}, 50)
		check(win, "slide past hours 0-2")
		if fs := win.FoldStats(); fs.Rebuilds != 1 || fs.Hits != 1 || fs.Slides != 1 {
			t.Fatalf("rate %d: fold stats %+v, want a rebuild, a hit and a slide", rate, fs)
		}

		data := snapshotBytes(t, win)
		restored, err := Restore(bytes.NewReader(data), f.idx, opts)
		if err != nil {
			t.Fatalf("rate %d: %v", rate, err)
		}
		if !bytes.Equal(snapshotBytes(t, restored), data) {
			t.Fatalf("rate %d: restored window does not re-snapshot byte-identically", rate)
		}
		both := []*Window{win, restored}
		feedTo(both, 60)
		check(restored, "restored, rebuild")
		check(win, "continued, slide")
		feedTo(both, math.MaxInt64)
		check(restored, "restored, slide")
		check(win, "continued, rebuild")

		// Volumes no counter reproduces at the rate restore through the
		// escape, and the stream re-snapshots to its own bytes, before and
		// after a read folds it.
		data = wideSnapDoc(float64(rate)).encode(f.idx, opts)
		if restored, err = Restore(bytes.NewReader(data), f.idx, opts); err != nil {
			t.Fatalf("rate %d: wide stream refused: %v", rate, err)
		}
		bk := restored.ring[50%len(restored.ring)]
		if len(bk.wide) != 4 || len(bk.line) != 6 {
			t.Fatalf("rate %d: hour 50 holds %d rows, %d escaped; want 6 and 4", rate, len(bk.line), len(bk.wide))
		}
		for _, read := range []bool{false, true} {
			if read {
				restored.Study()
			}
			if !bytes.Equal(snapshotBytes(t, restored), data) {
				t.Fatalf("rate %d: wide stream does not re-snapshot byte-identically (read %v)", rate, read)
			}
		}
	}

	t.Run("2^53 volumes read hourly", func(t *testing.T) {
		// Huge counters throughout, then only before hour 72, so the frame
		// later leaves them while the cached fold still holds them, and
		// the reads after that slide again.
		for _, c := range []struct {
			name  string
			until time.Duration
		}{{"throughout", math.MaxInt64}, {"before hour 72", 72 * time.Hour}} {
			f := buildDenseFixture(31)
			opts := f.opts
			opts.SamplingRate = 100
			for i := range f.recs {
				if i%50 == 0 && f.recs[i].Start.Sub(f.days[0]) < c.until {
					f.recs[i].Bytes = 1<<53 + 1
				}
			}
			var wins [2]*Window // read every hour, read once
			for i := range wins {
				win, err := NewWindow(f.idx, f.days[0], 48, opts)
				if err != nil {
					t.Fatal(err)
				}
				wins[i] = win
			}
			hourly, once := wins[0], wins[1]
			var prev FoldStats
			for _, flush := range hourFlushes(f.recs, f.days[0]) {
				flushRecords(hourly, flush)
				flushRecords(once, flush)
				prev = hourly.FoldStats()
				hourly.Merged()
			}
			_, got := hourly.Study()
			_, want := once.Study()
			if g, w := named(got), named(want); !reflect.DeepEqual(g, w) || !reflect.DeepEqual(volumeBits(g), volumeBits(w)) {
				t.Fatalf("huge counters %s: hourly reads (fold %+v) end on other figures than one read", c.name, hourly.FoldStats())
			}
			if slid := hourly.FoldStats().Slides > prev.Slides; slid != (c.until != math.MaxInt64) {
				t.Fatalf("huge counters %s: the last hourly read slid = %v", c.name, slid)
			}
		}
	})
}

// volumeBits lists the bits of every volume s holds, by what it is the
// volume of.
func volumeBits(s *namedStudy) map[string][]uint64 {
	out := map[string][]uint64{}
	put := func(key string, vs ...float64) {
		for _, v := range vs {
			out[key] = append(out[key], math.Float64bits(v))
		}
	}
	for line, days := range s.lineDaily {
		for _, d := range days {
			put(fmt.Sprint("line ", line), d[0], d[1])
		}
	}
	for k, days := range s.lineAliasDaily {
		put(fmt.Sprint("line alias ", k), days...)
	}
	for k, days := range s.linePortDaily {
		put(fmt.Sprint("line port ", k), days...)
	}
	for alias, ports := range s.portVol {
		for port, v := range ports {
			put(fmt.Sprint("port ", alias, port), v)
		}
	}
	for c, v := range s.contVol {
		put(fmt.Sprint("continent ", c), v)
	}
	for be, v := range s.backendVol {
		put(fmt.Sprint("backend ", be), v)
	}
	return out
}
