package collector

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"iotmap/internal/core/flows"
	"iotmap/internal/netflow"
)

// windowOpts is the fixture's analysis options with the sampling rate
// forced to 1, as window mode requires (the wire path pre-scales).
func (f *fixture) windowOpts() flows.Options {
	o := f.opts
	o.SamplingRate = 1
	return o
}

// windowRun exports and ingests the recorded streams into a
// window-mode collector whose window spans the whole
// study — so its trailing view must equal the batch study exactly.
func (f *fixture) windowRun(t testing.TB, streams int) (*flows.ContactCounter, *flows.Collector, *Collector) {
	t.Helper()
	win, err := flows.NewWindow(f.idx, f.w.Days[0], len(f.w.Days)*24, f.windowOpts())
	if err != nil {
		t.Fatal(err)
	}
	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts, Window: win})
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
	return cc, fc, col
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

// ingestIPFIXFeeds replays IPFIX feeds through a collector with cfg and
// returns it finalized.
func ingestIPFIXFeeds(t *testing.T, cfg Config, feeds [][]byte) (*flows.ContactCounter, *flows.Collector, *Collector) {
	t.Helper()
	col, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, feed := range feeds {
		if err := col.IngestIPFIX(fmt.Sprintf("ipfix-%d", i), bytes.NewReader(feed)); err != nil {
			t.Fatal(err)
		}
	}
	cc, fc := col.Finalize()
	return cc, fc, col
}

// TestWindowModeMatchesBatchWire: the service-mode headline property —
// streams folding into a shared study-spanning flows.Window reproduce
// the per-stream-partial batch aggregation exactly, across stream
// counts, for dictionary streams and for record streams (IPFIX), which
// retain no dictionary state.
func TestWindowModeMatchesBatchWire(t *testing.T) {
	f := buildFixture(t, 400)
	ccRef, colRef := f.memoryRun(4)
	for _, streams := range []int{1, 4} {
		f2 := buildFixture(t, 400)
		ccW, colW, col := f2.windowRun(t, streams)
		assertSameAnalysis(t, "window-vs-memory", ccRef, ccW, colRef, colW)
		if len(col.DictStates()) != streams {
			t.Fatalf("DictStates retained %d entries, want %d", len(col.DictStates()), streams)
		}
		if col.Partials() != nil {
			t.Fatal("window mode handed over partials")
		}
	}

	feeds := f.ipfixFeed(t, 2)
	ccB, colB, _ := ingestIPFIXFeeds(t, Config{Index: f.idx, Days: f.w.Days, Opts: f.opts}, feeds)
	win, err := flows.NewWindow(f.idx, f.w.Days[0], len(f.w.Days)*24, f.windowOpts())
	if err != nil {
		t.Fatal(err)
	}
	ccW, colW, col := ingestIPFIXFeeds(t, Config{Index: f.idx, Days: f.w.Days, Opts: f.opts, Window: win}, feeds)
	assertSameAnalysis(t, "ipfix window-vs-batch", ccB, ccW, colB, colW)
	if studyText(colW.Study()) != studyText(colB.Study()) {
		t.Fatal("IPFIX feeds into a whole-study window differ from batch mode")
	}
	if n := len(col.DictStates()); n != 0 {
		t.Fatalf("IPFIX streams retained %d dictionary states, want none", n)
	}
}

// TestWindowModeConfigValidation: the Config combinations window mode
// rejects, each of which would silently corrupt the study if allowed.
func TestWindowModeConfigValidation(t *testing.T) {
	f := buildFixture(t, 50)
	win, err := flows.NewWindow(f.idx, f.w.Days[0], len(f.w.Days)*24, f.windowOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts, Window: win, Policy: QuarantineStream}); err == nil {
		t.Fatal("window + QuarantineStream accepted")
	}
	if _, err := New(Config{Index: f.idx, Days: f.w.Days[1:], Opts: f.opts, Window: win}); err == nil {
		t.Fatal("window epoch != Days[0] accepted")
	}
	scaled, err := flows.NewWindow(f.idx, f.w.Days[0], len(f.w.Days)*24, f.opts) // SamplingRate 100
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts, Window: scaled}); err == nil {
		t.Fatal("window with sampling rate != 1 accepted")
	}
	if _, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts,
		RestoredDicts: map[string]*DictState{"x": {}}}); err == nil {
		t.Fatal("RestoredDicts without window accepted")
	}
}

// splitAtFlush re-frames a recorded stream into two valid streams,
// splitting after the flush frame nearest the midpoint. Flush frames
// delimit line batches, so both halves classify scanners exactly as the
// unsplit stream does — the boundary a checkpointing service must cut
// at.
func splitAtFlush(t testing.TB, data []byte) (partA, partB []byte) {
	t.Helper()
	// First pass: count flushes.
	total := 0
	fr := netflow.NewFrameReader(bytes.NewReader(data))
	for {
		fme, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if fme.Type == netflow.FrameFlush {
			total++
		}
	}
	if total < 2 {
		t.Fatalf("stream has %d flush frames; cannot split", total)
	}
	seen := 0
	fr = netflow.NewFrameReader(bytes.NewReader(data))
	for {
		fme, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if seen < total/2 {
			partA, err = netflow.AppendFrame(partA, fme.Type, fme.Payload)
		} else {
			partB, err = netflow.AppendFrame(partB, fme.Type, fme.Payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		if fme.Type == netflow.FrameFlush {
			seen++
		}
	}
	return partA, partB
}

// TestWindowCheckpointResume: kill-resume at the collector level. A
// dictionary-mode feed is cut at a flush boundary; service 1 ingests
// the first half and checkpoints (window snapshot + dictionary state),
// service 2 restores and ingests the second half under the same source
// label. The resumed study must be byte-identical to an uninterrupted
// run — asserted on the analyses and on the re-serialized window
// snapshot itself.
func TestWindowCheckpointResume(t *testing.T) {
	f := buildFixture(t, 300)
	var rec bytes.Buffer
	if _, err := f.net.SimulateLinesToWire([]io.Writer{&rec}, 0); err != nil {
		t.Fatal(err)
	}
	partA, partB := splitAtFlush(t, rec.Bytes())

	run := func(win *flows.Window, restored map[string]*DictState, feeds ...[]byte) *Collector {
		col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts, Window: win, RestoredDicts: restored})
		if err != nil {
			t.Fatal(err)
		}
		for _, feed := range feeds {
			if err := col.IngestNamedStream("feed", bytes.NewReader(feed)); err != nil {
				t.Fatal(err)
			}
		}
		return col
	}

	// Reference: one uninterrupted service over the whole recording.
	winRef, err := flows.NewWindow(f.idx, f.w.Days[0], len(f.w.Days)*24, f.windowOpts())
	if err != nil {
		t.Fatal(err)
	}
	colRef := run(winRef, nil, rec.Bytes())
	ccRef, fcRef := colRef.Finalize()

	// Service 1: first half, then checkpoint window + dictionaries.
	win1, err := flows.NewWindow(f.idx, f.w.Days[0], len(f.w.Days)*24, f.windowOpts())
	if err != nil {
		t.Fatal(err)
	}
	col1 := run(win1, nil, partA)
	var winSnap bytes.Buffer
	if err := flows.Snapshot(&winSnap, win1); err != nil {
		t.Fatal(err)
	}
	dicts := col1.DictStates()
	ds, ok := dicts["feed"]
	if !ok {
		t.Fatalf("no dictionary state retained; have %v", dicts)
	}
	var dictSnap bytes.Buffer
	if err := ds.Tables.Snapshot(&dictSnap); err != nil {
		t.Fatal(err)
	}

	// Service 2: restore and ingest the second half as the same source.
	win2, err := flows.Restore(bytes.NewReader(winSnap.Bytes()), f.idx, f.windowOpts())
	if err != nil {
		t.Fatal(err)
	}
	tables, err := flows.RestoreWireTables(bytes.NewReader(dictSnap.Bytes()), win2)
	if err != nil {
		t.Fatal(err)
	}
	col2 := run(win2, map[string]*DictState{"feed": {
		Source: "feed", Epoch: ds.Epoch, Rate: ds.Rate,
		Tables: tables, LineV4: ds.LineV4, BackV4: ds.BackV4,
	}}, partB)
	ccres, fcres := col2.Finalize()

	assertSameAnalysis(t, "resume-vs-uninterrupted", ccRef, ccres, fcRef, fcres)
	var refSnap, resSnap bytes.Buffer
	if err := flows.Snapshot(&refSnap, winRef); err != nil {
		t.Fatal(err)
	}
	if err := flows.Snapshot(&resSnap, win2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refSnap.Bytes(), resSnap.Bytes()) {
		t.Fatal("resumed window snapshot differs from uninterrupted run")
	}
	// The resumed stream's final dictionary must cover at least what the
	// checkpoint had (part B may extend it).
	if got := col2.DictStates()["feed"]; got == nil || got.Tables.Lines() < ds.Tables.Lines() {
		t.Fatal("resumed stream lost dictionary entries")
	}
}
