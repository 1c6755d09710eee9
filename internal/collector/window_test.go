package collector

import (
	"bytes"
	"io"
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
	rec := f.wireFeed(t, 1)[0]
	partA, partB := splitAtFlush(t, rec)

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
	colRef := run(winRef, nil, rec)
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
