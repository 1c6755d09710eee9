package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"iotmap"
	"iotmap/internal/collector"
	"iotmap/internal/core/flows"
	"iotmap/internal/serve"
)

// readPeriod is the open-loop reader's schedule: one GET /figures every
// 20 ms on one connection, whatever the previous one took.
const readPeriod = 20 * time.Millisecond

// daemon is the inputs of daemon-live: a chronological feed over a clock
// several windows long, and the figures an in-process window-mode
// collector renders from the same bytes with no TCP, HTTP or pacing.
type daemon struct {
	w      *world
	rc     runConfig
	feed   *chronoFeed
	want   string
	client *http.Client
	nextID int
}

func setupDaemon(rc runConfig) (*daemon, error) {
	days := make([]time.Time, rc.sizes.daemonDays)
	for i := range days {
		days[i] = iotmap.StudyDays()[0].AddDate(0, 0, i)
	}
	w, err := buildWorld(iotmap.Config{Seed: rc.seed, Scale: rc.sizes.scale, Lines: rc.sizes.daemonLines, Days: days}, rc.sizes.daemonRecords)
	if err != nil {
		return nil, err
	}
	d := &daemon{w: w, rc: rc, client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
	if d.feed, err = buildChronoFeed(w.net, days); err != nil {
		return nil, err
	}
	win, err := d.newWindow()
	if err != nil {
		return nil, err
	}
	col, err := collector.New(collector.Config{Index: w.idx, Days: days, Opts: w.opts, Window: win})
	if err != nil {
		return nil, err
	}
	if err := col.IngestNamedStream("reference", bytes.NewReader(d.feed.all)); err != nil {
		return nil, err
	}
	cc, fcol := col.Finalize()
	d.want = w.renderDaemon(cc, fcol.Study())
	return d, nil
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.w.sys.Close()
}

// windowOpts is the analysis options of a window behind a wire collector,
// which pre-scales counters (serve.New arranges the same).
func (d *daemon) windowOpts() flows.Options {
	o := d.w.opts
	o.SamplingRate = 1
	return o
}

func (d *daemon) newWindow() (*flows.Window, error) {
	return flows.NewWindow(d.w.idx, d.w.days()[0], d.rc.sizes.windowHours, d.windowOpts())
}

// config is the service configuration cmd/iotcollect -serve builds.
func (d *daemon) config(ckpt string) serve.Config {
	return serve.Config{
		Index: d.w.idx, Days: d.w.days(), Opts: d.w.opts,
		WindowHours: d.rc.sizes.windowHours, ReconnectSeed: d.rc.seed,
		CheckpointPath: ckpt,
		RenderFigures: func(cc *flows.ContactCounter, col *flows.Collector) string {
			return d.w.renderDaemon(cc, col.Study())
		},
	}
}

// ckptPath returns a checkpoint path in a fresh directory of the run's.
func (d *daemon) ckptPath() (string, error) {
	d.nextID++
	dir := filepath.Join(d.rc.dir, fmt.Sprintf("ckpt-%d", d.nextID))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, "window.ckpt"), nil
}

// service is a serve.Service running on two loopback listeners.
type service struct {
	svc       *serve.Service
	url, feed string
	cancel    context.CancelFunc
	done      chan error
	stopOnce  sync.Once
	stopErr   error
}

func (d *daemon) start(ckpt string) (*service, error) {
	svc, err := serve.New(d.config(ckpt))
	if err != nil {
		return nil, err
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	feedLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &service{svc: svc, url: "http://" + httpLn.Addr().String(), feed: feedLn.Addr().String(),
		cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- svc.Run(ctx, httpLn, feedLn) }()
	return s, nil
}

// stop cancels Run and waits for it: feeds drain, the final checkpoint
// is written, both listeners close. Further calls return the first
// call's error, so a deferred stop can back up an explicit one.
func (s *service) stop() error {
	s.stopOnce.Do(func() {
		s.cancel()
		s.stopErr = <-s.done
	})
	return s.stopErr
}

// get fetches a path and returns the body and whether the status was 200.
func (d *daemon) get(url string) (string, bool, error) {
	resp, err := d.client.Get(url)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), resp.StatusCode == http.StatusOK, err
}

var errNotDone = errors.New("feed did not complete within a minute of its last byte")

// waitStreams blocks until n streams have completed. The collector folds
// a stream's counters into Stats only when the stream ends, so this —
// close the connection, then wait for Streams — is the one completion
// signal that works; BatchRecords of an open stream never moves.
func waitStreams(col *collector.Collector, n uint64) error {
	deadline := time.Now().Add(60 * time.Second)
	for col.Stats().Streams < n {
		if time.Now().After(deadline) {
			return errNotDone
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// sleepUntil sleeps to the due time and returns how late it woke.
func sleepUntil(due time.Time) time.Duration {
	if wait := time.Until(due); wait > 0 {
		time.Sleep(wait)
	}
	return time.Since(due)
}

// liveClock is what one live phase measured, and the box clock's samples
// from the reader's idle time.
type liveClock struct {
	figures, feedLag, readLag samples
	box                       boxClock
}

// live runs one open-loop phase against a fresh service: chunk i of the
// feed is due at i/len(chunks) of dur on one TCP connection while one
// HTTP connection issues GET /figures every readPeriod, each request
// timed from when it was due; with checkpoints > 0 that many
// Service.Checkpoint calls are spread over the phase as well. When the
// feed is done it checks the daemon's counters and its final figures.
func (d *daemon) live(s *service, dur time.Duration, tr *tracer, checkpoints int, r *report) (*liveClock, error) {
	lc := &liveClock{}
	conn, err := net.Dial("tcp", s.feed)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	root := tr.begin("live", -1, 0)
	start := time.Now()
	bg := make(chan error, 2)
	go func() {
		for i, chunk := range d.feed.chunks {
			lc.feedLag.add(sleepUntil(start.Add(dur * time.Duration(i) / time.Duration(len(d.feed.chunks)))))
			if _, err := conn.Write(chunk); err != nil {
				bg <- err
				return
			}
		}
		bg <- conn.Close()
	}()
	go func() {
		for i := 1; i <= checkpoints; i++ {
			sleepUntil(start.Add(dur * time.Duration(i) / time.Duration(checkpoints+1)))
			sp := tr.begin("serve.checkpoint", root, i)
			_, err := s.svc.Checkpoint()
			tr.end(sp)
			if err != nil {
				bg <- err
				return
			}
		}
		bg <- nil
	}()
	requests := max(int(dur/readPeriod), minPasses)
	var bad int64
	for i := 0; i < requests; i++ {
		due := start.Add(time.Duration(i) * readPeriod)
		lc.readLag.add(sleepUntil(due))
		sp := tr.begin("serve.http_figures", root, i)
		_, ok, err := d.get(s.url + "/figures")
		tr.end(sp)
		lc.figures.add(time.Since(due))
		if err != nil || !ok {
			bad++
		}
		// The box clock ticks in the reader's idle time, when a sample
		// fits before the next request is due.
		if time.Until(due.Add(readPeriod)) >= sampleRoom {
			lc.box.tick()
		}
	}
	for i := 0; i < 2; i++ {
		if err := <-bg; err != nil {
			return nil, err
		}
	}
	if err := waitStreams(s.svc.Collector(), 1); err != nil {
		return nil, err
	}
	tr.end(root)
	r.ops(int64(requests), bad, "GET /figures")
	d.checkCounters(s.svc, r)
	body, ok, err := d.get(s.url + "/figures")
	if err != nil {
		return nil, err
	}
	r.check(ok && body == d.want, "live: /figures after the feed differs from the in-process window collector")
	return lc, nil
}

// checkCounters holds a service that has taken the whole feed to the
// ledger: every record offered was folded, none was bad, late or before
// the window, and the window did slide.
func (d *daemon) checkCounters(svc *serve.Service, r *report) {
	st := svc.Collector().Stats()
	ws := svc.Window().Stats()
	lost := absDiff(int64(st.BatchRecords), d.feed.records) +
		int64(st.BadPackets+st.DroppedFrames+ws.LateRecords+ws.PreWindowRecords)
	r.ops(d.feed.records, lost, "records offered")
	if len(d.feed.chunks) > d.rc.sizes.windowHours {
		r.check(ws.EvictedHours > 0, "the window never evicted: the feed is no longer than the window")
	}
}

// catchUp is one catch-up pass: a fresh service (no checkpoint path, so
// its stop writes nothing) takes the entire feed unpaced over TCP and
// then serves the figures. The pass is timed from the first write to
// the figures' arrival, its ingest from the first write to the stream's
// completion; starting and stopping the service are outside both, and
// so is the collection before it that gives every pass the same heap.
func (d *daemon) catchUp(tr *tracer, id int, r *report) (passTimes, error) {
	var pt passTimes
	runtime.GC()
	s, err := d.start("")
	if err != nil {
		return pt, err
	}
	defer s.stop() //nolint:errcheck // backs up the stop below on error paths
	conn, err := net.Dial("tcp", s.feed)
	if err != nil {
		return pt, err
	}
	root := tr.begin("pass", -1, id)
	start := time.Now()
	sp := tr.begin("collector.tcp_ingest", root, id)
	_, err = conn.Write(d.feed.all)
	if cerr := conn.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = waitStreams(s.svc.Collector(), 1)
	}
	pt.ingest = time.Since(start)
	tr.end(sp)
	if err != nil {
		return pt, err
	}
	sp = tr.begin("serve.http_figures", root, id)
	served, ok, err := d.get(s.url + "/figures")
	tr.end(sp)
	pt.job = time.Since(start)
	tr.end(root)
	if err != nil {
		return pt, err
	}
	d.checkCounters(s.svc, r)
	r.ops(1, boolCount(!ok), "GET /figures")
	r.check(served == d.want, "catch-up %d: /figures differs from the in-process window collector", id)
	return pt, s.stop()
}

func boolCount(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// handle serves one GET in process, with no socket in the way.
func handle(h http.Handler, path string) (string, bool) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.String(), rec.Code == http.StatusOK
}

// runDaemon measures daemon-live: the live phase (open loop, two fifths
// of the budget), then durability samples and catch-up passes taking
// turns for the rest, so that each metric's samples span three fifths
// of the run and a burst of noise on the box lands on a minority of them.
func runDaemon(rc runConfig, r *report) error {
	d, setup, err := medianSetup(rc.sizes.setups,
		func() (*daemon, error) { return setupDaemon(rc) },
		func(d *daemon) { d.close() })
	if err != nil {
		return err
	}
	defer d.close()
	if _, err := d.catchUp(nil, -1, newReport()); err != nil { // warm-up
		return err
	}
	if rc.trace {
		return d.traced(r)
	}

	ckpt, err := d.ckptPath()
	if err != nil {
		return err
	}
	s, err := d.start(ckpt)
	if err != nil {
		return err
	}
	defer s.stop() //nolint:errcheck // backs up the stop inside durability on error paths
	lc, err := d.live(s, rc.budget(0.4), nil, 0, r)
	if err != nil {
		return err
	}
	var clock passClock
	var box boxClock
	id := 0
	du, err := d.durability(s, ckpt, rc.budget(0.6), &box, r, func() error {
		for i := 0; i < 2; i++ {
			box.tick()
			pt, err := d.catchUp(nil, id, r)
			if err != nil {
				return err
			}
			clock.add(pt)
			id++
		}
		return nil
	})
	if err != nil {
		return err
	}
	sens, rd := boxSensitivities[rc.workload], box.read()
	r.set("setup_s", setup)
	r.timing("job_s", clock.job.p50(time.Second), rd, sens.job)
	r.rate("ingest_records_per_s", float64(d.feed.records)/clock.ingest.p50(time.Second), rd, sens.ingest)
	r.timing("figures_p50_ms", lc.figures.p50(time.Millisecond), lc.box.read(), sens.figures)
	r.timing("restore_p50_ms", du.restore.p50(time.Millisecond), rd, sens.restore)
	r.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(du.steady)
	return nil
}

// durable is what the durability samples measured, and the service they
// ran on: the steady-state window, restored.
type durable struct {
	checkpoint, restore samples
	bytes               int64
	steady              *serve.Service
}

// durability stops the service that took the live feed (the shutdown
// writes its checkpoint) and restores the steady-state window from it;
// then, for the budget, it takes turns: Service.Checkpoint() on that
// window, timed; the window dropped; between (if any); serve.New from
// the checkpoint just written, timed, which gives the next turn its
// window. runtime.GC() comes before each sample, and nothing large is
// alive beside it: a collection cycle that starts inside a sample or
// not, depending on what else the heap holds, made the medians jump
// between two clusters. A restore sample runs with the collector off. The samples run on a restored window, not the
// one that took the feed: that one carries the slack its slabs grew
// with, as good as random in the seed, and both write the same bytes.
// Every restored service must serve the figures the stopped one held.
func (d *daemon) durability(s *service, ckpt string, budget time.Duration, box *boxClock, r *report, between func() error) (*durable, error) {
	err := s.stop()
	s.svc = nil // only the checkpoint survives the stop
	r.ops(1, boolCount(err != nil), "shutdown checkpoints")
	if err != nil {
		return nil, err
	}
	du := &durable{}
	restore := func() (time.Duration, error) {
		du.steady = nil
		var svc *serve.Service
		took, err := collectorOff(func() (err error) {
			svc, err = serve.New(d.config(ckpt))
			return err
		})
		r.ops(1, boolCount(err != nil || !svc.Restored), "restores")
		if err != nil {
			return 0, err
		}
		figures, ok := handle(svc.Handler(), "/figures")
		r.ops(1, boolCount(!ok), "GET /figures")
		r.check(figures == d.want, "/figures after a restore differs from the in-process window collector")
		du.steady = svc
		return took, nil
	}
	checkpoint := func() (time.Duration, error) {
		runtime.GC()
		start := time.Now()
		n, err := du.steady.Checkpoint()
		took := time.Since(start)
		r.ops(1, boolCount(err != nil), "checkpoints")
		du.bytes = n
		return took, err
	}
	// Untimed: the first restore and the first checkpoint, which create
	// the files the later ones replace.
	if _, err := restore(); err != nil {
		return nil, err
	}
	if _, err := checkpoint(); err != nil {
		return nil, err
	}
	err = runPasses(budget, box, func(int) error {
		took, err := checkpoint()
		if err != nil {
			return err
		}
		du.checkpoint.add(took)
		du.steady = nil
		if between != nil {
			if err := between(); err != nil {
				return err
			}
		}
		box.tick()
		if took, err = restore(); err != nil {
			return err
		}
		du.restore.add(took)
		return nil
	})
	return du, err
}

// traced is the per-layer run: a live phase, every read and durability
// layer on its steady-state window, a second live phase with checkpoints
// running beside the reads, traced catch-up passes, and decode and fold
// alone.
func (d *daemon) traced(r *report) error {
	rc := d.rc
	tr := newTracer()
	ckpt, err := d.ckptPath()
	if err != nil {
		return err
	}
	s, err := d.start(ckpt)
	if err != nil {
		return err
	}
	defer s.stop() //nolint:errcheck // backs up the stop inside durability on error paths
	mem := startMem()
	var box boxClock
	lc, err := d.live(s, rc.budget(0.25), tr, 0, r)
	if err != nil {
		return err
	}
	mem.report(r, d.feed.records, 1)
	ws := s.svc.Window().Stats()
	r.set("flows.window_evicted_hours", float64(ws.EvictedHours))
	r.set("flows.window_late_records", float64(ws.LateRecords))
	r.set("loadgen.feed_lag_p99_ms", lc.feedLag.p99(time.Millisecond))
	r.set("loadgen.read_lag_p99_ms", lc.readLag.p99(time.Millisecond))
	r.set("loadgen.offered_records", float64(d.feed.records))
	r.set("serve.figures_p99_ms", lc.figures.p99(time.Millisecond))
	// The live window carries the slack its slabs grew with; a restored
	// one (the end-to-end live_heap_mb) is allocated to size.
	r.set("serve.heap_after_live_mb", liveHeapMB())

	// The window is idle and in its steady state from here to the stop.
	if err := d.idleReads(s, r); err != nil {
		return err
	}
	snap, unsnap, image, err := d.codec(s.svc.Window(), rc.budget(0.1), &box)
	if err != nil {
		return err
	}
	du, err := d.durability(s, ckpt, rc.budget(0.15), &box, r, nil)
	if err != nil {
		return err
	}
	du.steady = nil
	r.set("flows.snapshot_ms", snap.p50(time.Millisecond))
	r.set("flows.snapshot_bytes", float64(image))
	r.set("flows.restore_ms", unsnap.p50(time.Millisecond))
	r.set("serve.checkpoint_p50_ms", du.checkpoint.p50(time.Millisecond))
	r.set("serve.checkpoint_bytes", float64(du.bytes))
	r.set("serve.checkpoint_self_ms", du.checkpoint.p50(time.Millisecond)-snap.p50(time.Millisecond))
	r.set("serve.restore_self_ms", du.restore.p50(time.Millisecond)-unsnap.p50(time.Millisecond))

	// Second live phase on a fresh service: checkpoints, which hold every
	// shard lock, run beside the reads; the read tail is the stall.
	if ckpt, err = d.ckptPath(); err != nil {
		return err
	}
	s2, err := d.start(ckpt)
	if err != nil {
		return err
	}
	defer s2.stop() //nolint:errcheck // backs up the stop below on error paths
	stalled, err := d.live(s2, rc.budget(0.25), nil, 10, r)
	if err != nil {
		return err
	}
	if err := s2.stop(); err != nil {
		return err
	}
	r.set("serve.read_stall_p99_ms", stalled.figures.p99(time.Millisecond))

	// Catch-up passes, alternately traced and untraced.
	var tracedClock, plainClock passClock
	err = runPasses(rc.budget(0.15), &box, func(i int) error {
		t, into := tr, &tracedClock
		if !firstTurn(i) {
			t, into = nil, &plainClock
		}
		pt, err := d.catchUp(t, i, r)
		into.add(pt)
		return err
	})
	if err != nil {
		return err
	}
	spans := tr.all()
	if err := d.isolatedLayers(layerTimes(spans)["collector.tcp_ingest"], &box, r); err != nil {
		return err
	}
	r.set("trace.coverage", coverage(spans, "pass"))
	r.set("trace.overhead_pct", 100*(tracedClock.job.p50(time.Second)/plainClock.job.p50(time.Second)-1))
	box.report(r)
	return writeTrace(rc.traceOut, traceFile{Workload: rc.workload, Seed: rc.seed, Spans: spans})
}

// idleReads times the read endpoints on an idle window, in process and
// over HTTP; the difference on /figures is what the HTTP path costs.
func (d *daemon) idleReads(s *service, r *report) error {
	var overHTTP, figH, winH, statsH samples
	for i := 0; i < 32; i++ {
		start := time.Now()
		_, ok, err := d.get(s.url + "/figures")
		overHTTP.add(time.Since(start))
		if err != nil {
			return err
		}
		bad := boolCount(!ok)
		for _, h := range []struct {
			path string
			into *samples
		}{{"/figures", &figH}, {"/window", &winH}, {"/stats", &statsH}} {
			start = time.Now()
			_, ok := handle(s.svc.Handler(), h.path)
			h.into.add(time.Since(start))
			bad += boolCount(!ok)
		}
		r.ops(4, bad, "idle-window requests")
	}
	r.set("serve.figures_handler_ms", figH.p50(time.Millisecond))
	r.set("serve.window_handler_ms", winH.p50(time.Millisecond))
	r.set("serve.stats_handler_ms", statsH.p50(time.Millisecond))
	r.set("serve.http_overhead_ms", overHTTP.p50(time.Millisecond)-figH.p50(time.Millisecond))
	return nil
}

// collectorOff times f after a full collection and with the collector
// held off. A restore allocates some 130 MB in its 75 ms; where the
// cycles that sets off fall depends on the heap around it, which this
// process does not share with a daemon starting up, and with the
// collector on the samples of one run read 75 to 125 ms (quartile spread
// 12-30%), with it off 68 to 79 (6%).
func collectorOff(f func() error) (time.Duration, error) {
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	start := time.Now()
	err := f()
	took := time.Since(start)
	debug.SetGCPercent(gc)
	return took, err
}

// codec times the window codec alone, to and from memory, and returns
// the image's size; runtime.GC() before each sample, the restore with
// the collector off as in durability.
func (d *daemon) codec(win *flows.Window, budget time.Duration, box *boxClock) (snap, unsnap samples, size int, err error) {
	var image bytes.Buffer
	err = runPasses(budget, box, func(int) error {
		image.Reset()
		runtime.GC()
		start := time.Now()
		err := flows.Snapshot(&image, win)
		snap.add(time.Since(start))
		if err != nil {
			return err
		}
		took, err := collectorOff(func() error {
			_, err := flows.Restore(bytes.NewReader(image.Bytes()), d.w.idx, d.windowOpts())
			return err
		})
		unsnap.add(took)
		return err
	})
	return snap, unsnap, image.Len(), err
}

// isolatedLayers times decode alone and the window fold alone over the
// feed, and charges what is left of the catch-up passes' TCP ingest to the
// collector (and, here, the socket).
func (d *daemon) isolatedLayers(tcpIngest samples, box *boxClock, r *report) error {
	var decode, fold samples
	var seen decodeCount
	err := runPasses(d.rc.budget(0.05), box, func(int) error {
		start := time.Now()
		var err error
		seen, err = decodeOnly(d.feed.all)
		decode.add(time.Since(start))
		return err
	})
	if err != nil {
		return err
	}
	r.check(seen.records == d.feed.records, "decode-only saw %d records of %d", seen.records, d.feed.records)
	ops, err := predecode(d.feed.all, d.w.days()[0])
	if err != nil {
		return err
	}
	err = runPasses(d.rc.budget(0.1), box, func(int) error {
		win, err := d.newWindow()
		if err != nil {
			return err
		}
		start := time.Now()
		rows, err := foldOnly(win, ops)
		fold.add(time.Since(start))
		if err == nil && rows != d.feed.records {
			err = fmt.Errorf("fold-only folded %d rows of %d", rows, d.feed.records)
		}
		return err
	})
	if err != nil {
		return err
	}
	n := float64(d.feed.records)
	decodeNs, foldNs := decode.p50(time.Nanosecond)/n, fold.p50(time.Nanosecond)/n
	r.set("netflow.decode_ns_per_record", decodeNs)
	r.set("netflow.wire_bytes_per_record", float64(len(d.feed.all))/n)
	r.set("netflow.frames", float64(seen.frames))
	r.set("flows.window_fold_ns_per_record", foldNs)
	r.set("collector.self_ns_per_record", tcpIngest.p50(time.Nanosecond)/n-decodeNs-foldNs)
	return nil
}
