package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"iotmap"
	"iotmap/internal/collector"
	"iotmap/internal/core/flows"
	"iotmap/internal/isp"
)

// replay is the inputs of replay-batch and replay-window: one recorded
// dictionary-format study week on disk, and the figures a memory-mode
// TrafficStudy of the same seed renders, which both must reproduce byte
// for byte.
type replay struct {
	w       *world
	window  bool
	path    string
	split   []string // the same week recorded as two streams (traced runs)
	records int64
	want    string
}

func setupReplay(rc runConfig, window bool) (*replay, error) {
	w, err := buildWorld(iotmap.Config{Seed: rc.seed, Scale: rc.sizes.scale, Lines: rc.sizes.replayLines}, rc.sizes.replayRecords)
	if err != nil {
		return nil, err
	}
	in := &replay{w: w, window: window, path: filepath.Join(rc.dir, "week.nf")}
	if in.records, err = recordWeek(w.net, []string{in.path}); err != nil {
		return nil, err
	}
	if rc.trace && !window {
		in.split = []string{filepath.Join(rc.dir, "week-0of2.nf"), filepath.Join(rc.dir, "week-1of2.nf")}
		if _, err := recordWeek(w.net, in.split); err != nil {
			return nil, err
		}
	}
	if err := w.sys.TrafficStudy(); err != nil {
		return nil, err
	}
	in.want = w.renderDaemon(w.sys.Contacts, w.sys.Study)
	return in, nil
}

// recordWeek exports the study week as len(paths) recorded streams and
// returns the records written.
func recordWeek(n *isp.Network, paths []string) (int64, error) {
	files := make([]*os.File, len(paths))
	writers := make([]io.Writer, len(paths))
	for i, p := range paths {
		f, err := os.Create(p)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		files[i], writers[i] = f, f
	}
	st, err := n.SimulateLinesToWireFormat(writers, 0, isp.WireDict)
	if err != nil {
		return 0, err
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return int64(st.V4Records + st.V6Records), nil
}

func (in *replay) close() { in.w.sys.Close() }

// passTimes is one pass's clock: the whole job, and the ingest call
// alone.
type passTimes struct{ job, ingest time.Duration }

// pass replays the given recorded streams through a fresh collector and
// renders the figures: batch mode folds into per-stream ShardPartials
// that Finalize merges, window mode into one full-study Window. keep
// receives the pass's aggregate so the caller can hold it live.
func (in *replay) pass(tr *tracer, id int, paths []string, r *report, keep *any) (passTimes, error) {
	var pt passTimes
	root := tr.begin("pass", -1, id)
	start := time.Now()
	cfg := collector.Config{Index: in.w.idx, Days: in.w.days(), Opts: in.w.opts}
	var win *flows.Window
	if in.window {
		winOpts := in.w.opts
		winOpts.SamplingRate = 1 // the wire path pre-scales, as serve.New arranges
		var err error
		if win, err = flows.NewWindow(in.w.idx, in.w.days()[0], len(in.w.days())*24, winOpts); err != nil {
			return pt, err
		}
		cfg.Window = win
	}
	col, err := collector.New(cfg)
	if err != nil {
		return pt, err
	}
	sp := tr.begin("collector.ingest_files", root, id)
	ingestStart := time.Now()
	err = col.IngestFiles(paths)
	filled := time.Now()
	tr.end(sp)
	if err != nil {
		return pt, err
	}
	var cc *flows.ContactCounter
	var study *flows.Study
	if in.window {
		sp = tr.begin("flows.window_study", root, id)
		cc, study = win.Study()
		tr.end(sp)
		*keep = win
	} else {
		sp = tr.begin("flows.merge", root, id)
		var fcol *flows.Collector
		cc, fcol = col.Finalize()
		tr.end(sp)
		sp = tr.begin("flows.study", root, id)
		study = fcol.Study()
		tr.end(sp)
		*keep = fcol
	}
	sp = tr.begin("figures.render_daemon", root, id)
	out := in.w.renderDaemon(cc, study)
	tr.end(sp)
	done := time.Now()
	tr.end(root)
	pt = passTimes{job: done.Sub(start), ingest: filled.Sub(ingestStart)}

	st := col.Stats()
	lost := absDiff(int64(st.BatchRecords), in.records) + int64(st.BadPackets+st.DroppedFrames)
	if in.window {
		ws := win.Stats()
		lost += int64(ws.LateRecords + ws.PreWindowRecords + ws.EvictedRecords)
	}
	r.ops(in.records, lost, "records offered")
	r.check(out == in.want, "pass %d: figures differ from the memory-mode study of the same seed", id)
	return pt, nil
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// passClock accumulates the per-pass clocks of a run of passes.
type passClock struct{ job, ingest samples }

func (c *passClock) add(pt passTimes) {
	c.job.add(pt.job)
	c.ingest.add(pt.ingest)
}

// warmPasses is how many passes run before the clock starts, so page
// cache, allocator and branch predictors are in their steady state.
const warmPasses = 3

// runReplay measures replay-batch (window=false) or replay-window.
func runReplay(rc runConfig, window bool, r *report) error {
	in, setup, err := medianSetup(rc.sizes.setups,
		func() (*replay, error) { return setupReplay(rc, window) },
		func(in *replay) { in.close() })
	if err != nil {
		return err
	}
	defer in.close()
	one := []string{in.path}
	var keep any
	for i := 0; i < warmPasses; i++ {
		if _, err := in.pass(nil, -1-i, one, newReport(), &keep); err != nil {
			return err
		}
	}
	if rc.trace {
		return in.traced(rc, r)
	}
	var clock passClock
	var box boxClock
	err = runPasses(rc.budget(1), &box, func(i int) error {
		pt, err := in.pass(nil, i, one, r, &keep)
		clock.add(pt)
		return err
	})
	if err != nil {
		return err
	}
	sens, rd := boxSensitivities[rc.workload], box.read()
	r.set("setup_s", setup)
	job := r.timing("job_s", clock.job.p50(time.Second), rd, sens.job)
	r.rate("ingest_records_per_s", float64(in.records)/clock.ingest.p50(time.Second), rd, sens.ingest)
	r.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(keep)
	r.fillUndefined(job, in.records)
	return nil
}

// traced is the per-layer run: passes alternately traced and untraced
// (their difference is the tracing overhead), then each layer inside the
// ingest call on its own.
func (in *replay) traced(rc runConfig, r *report) error {
	tr := newTracer()
	one := []string{in.path}
	var keep any
	var tracedClock, plainClock passClock
	var warm samples
	mem := startMem()
	passes := 0
	var box boxClock
	err := runPasses(rc.budget(0.5), &box, func(i int) error {
		passes++
		t, into := tr, &tracedClock
		if !firstTurn(i) {
			t, into = nil, &plainClock
		}
		pt, err := in.pass(t, i, one, r, &keep)
		into.add(pt)
		if win, ok := keep.(*flows.Window); ok && t != nil && err == nil {
			// Untouched since the pass's own Study: the fold cache answers.
			start := time.Now()
			win.Study()
			warm.add(time.Since(start))
		}
		return err
	})
	if err != nil {
		return err
	}
	mem.report(r, in.records, passes)
	keep = nil

	data, err := os.ReadFile(in.path)
	if err != nil {
		return err
	}
	var decode samples
	var seen decodeCount
	err = runPasses(rc.budget(0.15), &box, func(int) error {
		start := time.Now()
		seen, err = decodeOnly(data)
		decode.add(time.Since(start))
		return err
	})
	if err != nil {
		return err
	}
	r.check(seen.records == in.records, "decode-only saw %d records, the exporter wrote %d", seen.records, in.records)

	ops, err := predecode(data, in.w.days()[0])
	if err != nil {
		return err
	}
	sinkOpts := in.w.opts
	sinkOpts.SamplingRate = 1
	var fold samples
	err = runPasses(rc.budget(0.2), &box, func(int) error {
		var sink flows.Sink
		if in.window {
			if sink, err = flows.NewWindow(in.w.idx, in.w.days()[0], len(in.w.days())*24, sinkOpts); err != nil {
				return err
			}
		} else {
			sink = flows.NewShardPartial(in.w.idx, in.w.days(), sinkOpts)
		}
		start := time.Now()
		rows, err := foldOnly(sink, ops)
		fold.add(time.Since(start))
		if err == nil && rows != in.records {
			err = fmt.Errorf("fold-only folded %d rows of %d", rows, in.records)
		}
		return err
	})
	if err != nil {
		return err
	}

	n := float64(in.records)
	spans := tr.all()
	layers := layerTimes(spans)
	decodeNs := decode.p50(time.Nanosecond) / n
	foldNs := fold.p50(time.Nanosecond) / n
	r.set("netflow.decode_ns_per_record", decodeNs)
	r.set("netflow.wire_bytes_per_record", float64(len(data))/n)
	r.set("netflow.frames", float64(seen.frames))
	if in.window {
		r.set("flows.window_fold_ns_per_record", foldNs)
		r.set("flows.window_study_cold_ms", layers["flows.window_study"].p50(time.Millisecond))
		r.set("flows.window_study_warm_us", warm.p50(time.Microsecond))
	} else {
		r.set("flows.partial_fold_ns_per_record", foldNs)
		r.set("flows.merge_ms", layers["flows.merge"].p50(time.Millisecond))
		r.set("flows.study_ms", layers["flows.study"].p50(time.Millisecond))
	}
	r.set("collector.self_ns_per_record", layers["collector.ingest_files"].p50(time.Nanosecond)/n-decodeNs-foldNs)
	r.set("figures.render_daemon_ms", layers["figures.render_daemon"].p50(time.Millisecond))
	r.set("trace.coverage", coverage(spans, "pass"))
	r.set("trace.overhead_pct", 100*(tracedClock.job.p50(time.Second)/plainClock.job.p50(time.Second)-1))

	if len(in.split) > 0 {
		// Two streams on two cores against one: what a second ingest
		// stream buys on this box. Alternating, so drift hits both alike.
		var s1, s2 samples
		err = runPasses(rc.budget(0.15), &box, func(i int) error {
			paths, into := one, &s1
			if !firstTurn(i) {
				paths, into = in.split, &s2
			}
			pt, err := in.pass(nil, i, paths, r, &keep)
			into.add(pt.ingest)
			return err
		})
		if err != nil {
			return err
		}
		r.set("collector.scaling_2streams", s1.p50(time.Second)/s2.p50(time.Second))
	}
	box.report(r)
	return writeTrace(rc.traceOut, traceFile{Workload: rc.workload, Seed: rc.seed, Spans: spans})
}
