package collector

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"iotmap/internal/core/flows"
	"iotmap/internal/faultwire"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
)

// BenchmarkIngestFile is the collector layer on its own: one recorded
// dictionary week replayed from a temp file through IngestFile, decode,
// classification and fold included, into a batch sink (one
// ShardPartial) or a window sink (one full-study Window). The week is
// recorded two ways: line-major, as the product's exporter writes it
// (one flush per line-week), and hour-major, as a live exporter feeds a
// daemon (one flush per study hour, holding hundreds of lines).
func BenchmarkIngestFile(b *testing.B) {
	f := buildFixture(b, 18000)
	dir := b.TempDir()
	lineMajor := filepath.Join(dir, "line-major.nf")
	out, err := os.Create(lineMajor)
	if err != nil {
		b.Fatal(err)
	}
	ws, err := f.net.SimulateLinesToWire([]io.Writer{out}, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := out.Close(); err != nil {
		b.Fatal(err)
	}
	hourMajor := filepath.Join(dir, "hour-major.nf")
	feed, hourRecords := hourMajorFeed(b, f)
	if err := os.WriteFile(hourMajor, feed, 0o644); err != nil {
		b.Fatal(err)
	}
	feeds := []struct {
		name    string
		path    string
		records float64
	}{
		{"line-major", lineMajor, float64(ws.V4Records + ws.V6Records)},
		{"hour-major", hourMajor, float64(hourRecords)},
	}
	for _, fd := range feeds {
		for _, sink := range []string{"batch", "window"} {
			b.Run(fd.name+"/"+sink, func(b *testing.B) {
				b.ReportAllocs()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					cfg := Config{Index: f.idx, Days: f.w.Days, Opts: f.opts}
					if sink == "window" {
						win, err := flows.NewWindow(f.idx, f.w.Days[0], len(f.w.Days)*24, f.windowOpts())
						if err != nil {
							b.Fatal(err)
						}
						cfg.Window = win
					}
					col, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if err := col.IngestFile(fd.path); err != nil {
						b.Fatal(err)
					}
					if got := col.Stats().BatchRecords; float64(got) != fd.records {
						b.Fatalf("folded %d records of %v", got, fd.records)
					}
				}
				ns := float64(time.Since(start).Nanoseconds()) / float64(b.N) / fd.records
				b.ReportMetric(ns, "ns/record")
				b.ReportMetric(1e9/ns, "records/s")
			})
		}
	}
}

// hourMajorFeed records the fixture's week as a live exporter sends it:
// study hours in order, each one flush of every line's rows in that
// hour, with dictionary deltas for the addresses making their debut. It
// returns the stream and its record count.
func hourMajorFeed(tb testing.TB, f *fixture) ([]byte, int) {
	tb.Helper()
	hours := len(f.w.Days) * 24
	// byHour[h] holds hour h's rows, Line indexing lines.
	byHour := make([]netflow.RecordBatch, hours)
	var lines []netip.Addr
	f.net.EmitLines(1, func(_ int, line *isp.Line, rows *netflow.RecordBatch) {
		base := uint32(len(lines))
		lines = append(lines, line.Addrs()...)
		for i, h := range rows.Hour {
			if h >= 0 && int(h) < hours {
				byHour[h].Append(base+rows.Line[i], rows.Backend[i], rows.Down[i], h, rows.Port[i], rows.Proto[i], rows.Bytes[i], rows.Packets[i])
			}
		}
	})
	backends := f.net.BackendAddrs()
	out := netflow.AppendHelloFrame(nil, f.net.Cfg.SamplingRate, f.w.Days[0].Unix())
	lineIDs := map[uint32]uint32{}
	backIDs := map[uint32]uint32{}
	records := 0
	for h := range byHour {
		b := &byHour[h]
		if b.Len() == 0 {
			continue
		}
		var newLines, newBacks []netip.Addr
		for i := range b.Line {
			id, ok := lineIDs[b.Line[i]]
			if !ok {
				id = uint32(len(lineIDs))
				lineIDs[b.Line[i]] = id
				newLines = append(newLines, lines[b.Line[i]])
			}
			b.Line[i] = id
			if id, ok = backIDs[b.Backend[i]]; !ok {
				id = uint32(len(backIDs))
				backIDs[b.Backend[i]] = id
				newBacks = append(newBacks, backends[b.Backend[i]])
			}
			b.Backend[i] = id
		}
		var err error
		if len(newLines) > 0 {
			if out, err = netflow.AppendDictFrame(out, netflow.FrameLineDict, uint32(len(lineIDs)-len(newLines)), newLines); err != nil {
				tb.Fatal(err)
			}
		}
		if len(newBacks) > 0 {
			if out, err = netflow.AppendDictFrame(out, netflow.FrameBackendDict, uint32(len(backIDs)-len(newBacks)), newBacks); err != nil {
				tb.Fatal(err)
			}
		}
		if out, _, err = netflow.AppendBatchFrames(out, b); err != nil {
			tb.Fatal(err)
		}
		out = netflow.AppendFlushFrame(out)
		records += b.Len()
	}
	return out, records
}

// serialFold is the builder the pipelined fold replaced, kept as its
// oracle: every flush interval folds on the decoding goroutine the
// moment it closes.
type serialFold struct{ view netflow.RecordBatch }

func (s *serialFold) flushed(ch *chunk) *chunk { ch.fold(&s.view); return ch }
func (s *serialFold) join(ch *chunk) *chunk    { ch.fold(&s.view); return ch }
func (s *serialFold) close()                   {}

// pipeRun is what one ingest left behind: the analysis, the counters,
// the retained dictionary state (as snapshot bytes) and the error.
type pipeRun struct {
	cc    *flows.ContactCounter
	col   *flows.Collector
	stats Stats
	rows  []StreamStat
	dicts map[string]string
	err   string
}

// pipeCase is one cell of the pipelined-versus-serial matrix.
type pipeCase struct {
	feed   string // "dict", "v5" or "ipfix"
	window bool
	policy ErrorPolicy
	fault  string // "clean", "cut", "restart", "corrupt", "truncate" or "kill"
}

func (c pipeCase) name() string {
	sink := "batch"
	if c.window {
		sink = "window"
	}
	return fmt.Sprintf("%s/%s/%s/%s", c.feed, sink, c.policy, c.fault)
}

// scenario is the case's faultwire schedule (nil: a clean wire).
func (c pipeCase) scenario(start time.Time) *faultwire.Scenario {
	var r faultwire.Rule
	switch c.fault {
	case "corrupt":
		r = faultwire.Rule{Stream: -1, Faults: faultwire.Faults{CorruptProb: 0.01, DropProb: 0.005, DupProb: 0.005}}
	case "truncate":
		r = faultwire.Rule{Stream: -1, Faults: faultwire.Faults{TruncateProb: 0.01}}
	case "kill":
		r = faultwire.Rule{Stream: 0, FromHour: 80, Faults: faultwire.Faults{Kill: true}}
	default:
		return nil
	}
	return &faultwire.Scenario{Seed: 7, Start: start, Rules: []faultwire.Rule{r}}
}

// run ingests the case's feeds into a fresh collector, folding serially
// (the oracle) or through the pipeline with counter readers spinning
// throughout.
func (c pipeCase) run(t *testing.T, f *fixture, feeds [][]byte, serial bool) pipeRun {
	t.Helper()
	cfg := Config{Index: f.idx, Days: f.w.Days, Opts: f.opts, Policy: c.policy}
	if c.window {
		win, err := flows.NewWindow(f.idx, f.w.Days[0], len(f.w.Days)*24, f.windowOpts())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Window = win
	}
	if sc := c.scenario(f.w.Days[0]); sc != nil {
		cfg.Tap = func(stream int, _ string, r io.Reader) io.Reader { return sc.Wrap(stream, "isp", r) }
	}
	col, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial {
		col.newFolder = func() folder { return &serialFold{} }
	} else {
		defer spinReaders(t, col)()
	}
	readers := make([]io.Reader, len(feeds))
	names := make([]string, len(feeds))
	for i, feed := range feeds {
		readers[i] = bytes.NewReader(feed)
		names[i] = fmt.Sprintf("%s-%d", c.feed, i)
	}
	if c.feed == "ipfix" {
		errs := make([]error, len(feeds))
		for i := range readers {
			errs[i] = col.IngestIPFIX(names[i], readers[i])
		}
		err = errors.Join(errs...)
	} else {
		err = col.IngestNamedStreams(names, readers)
	}
	out := pipeRun{stats: col.Stats(), rows: col.StreamStats(), dicts: map[string]string{}}
	if err != nil {
		out.err = err.Error()
	}
	for src, ds := range col.DictStates() {
		var buf bytes.Buffer
		if err := ds.Tables.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		out.dicts[src] = fmt.Sprintf("%d/%d/%v/%v/%x", ds.Epoch, ds.Rate, ds.LineV4, ds.BackV4, buf.Bytes())
	}
	out.cc, out.col = col.Finalize()
	return out
}

// TestPipelinedIngestMatchesSerial: the pipelined fold leaves exactly
// what folding each flush interval inline did — the study, every
// counter and the retained dictionary state — for dictionary, framed v5
// and IPFIX feeds, into batch and window sinks, under every fault
// policy and faultwire corruption, truncation and kill rules, with
// counter readers spinning, at two procs and at one.
func TestPipelinedIngestMatchesSerial(t *testing.T) {
	f := buildFixture(t, 150)
	feeds := map[string][][]byte{"ipfix": f.ipfixFeed(t, 2)}
	bufs := []*bytes.Buffer{{}, {}}
	if _, err := f.net.SimulateLinesToWire([]io.Writer{bufs[0], bufs[1]}, 0); err != nil {
		t.Fatal(err)
	}
	feeds["dict"] = [][]byte{bufs[0].Bytes(), bufs[1].Bytes()}
	for _, r := range f.v5Feed(t, 2) {
		b, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		feeds["v5"] = append(feeds["v5"], b)
	}

	var cases []pipeCase
	for _, feed := range []string{"dict", "v5", "ipfix"} {
		// faultwire frames its input, so it cannot damage a raw IPFIX
		// stream, and its kill rules act at a dictionary row's hour;
		// every feed can be cut mid-message. A restarted framed
		// exporter replays its feed from the start, hello included.
		faults := []string{"clean", "cut"}
		switch feed {
		case "dict":
			faults = append(faults, "restart", "corrupt", "truncate", "kill")
		case "v5":
			faults = append(faults, "restart", "corrupt", "truncate")
		}
		for _, window := range []bool{false, true} {
			for _, pol := range []ErrorPolicy{Abort, DropFrame, QuarantineStream} {
				if window && pol == QuarantineStream {
					continue // refused in window mode
				}
				for _, fault := range faults {
					cases = append(cases, pipeCase{feed: feed, window: window, policy: pol, fault: fault})
				}
			}
		}
	}
	for _, procs := range []int{2, 1} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, c := range cases {
				in := feeds[c.feed]
				switch c.fault {
				case "cut":
					in = slices.Clone(in)
					in[0] = in[0][:len(in[0])*2/3+5]
				case "restart":
					in = slices.Clone(in)
					head, _ := splitFrames(t, in[0], 100)
					in[0] = slices.Concat(head, in[0])
				}
				want := c.run(t, f, in, true)
				got := c.run(t, f, in, false)
				label := c.name()
				if got.err != want.err {
					t.Fatalf("%s: error %q, serial %q", label, got.err, want.err)
				}
				if got.stats != want.stats || !reflect.DeepEqual(got.rows, want.rows) {
					t.Fatalf("%s: counters %+v\nserial %+v", label, got.stats, want.stats)
				}
				if !maps.Equal(got.dicts, want.dicts) {
					t.Fatalf("%s: retained dictionaries differ from serial", label)
				}
				assertSameAnalysis(t, label, want.cc, got.cc, want.col, got.col)
			}
		})
	}
}
