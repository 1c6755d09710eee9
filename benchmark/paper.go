package main

import (
	"context"
	"io"
	"runtime"
	"time"

	"iotmap"
	"iotmap/internal/core/flows"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
)

// paper is the inputs of paper-batch: just the configuration cmd/paper
// builds for the primary study week in memory mode, the report a
// reference run of it renders, and how many records its traffic study
// simulates. The live TLS scan is off: its cost is crypto/tls handshakes
// that vary by half between identical runs.
type paper struct {
	cfg     iotmap.Config
	want    string
	records int64
}

func setupPaper(rc runConfig) (*paper, error) {
	p := &paper{cfg: iotmap.Config{
		Seed: rc.seed, Scale: rc.sizes.paperScale, Lines: rc.sizes.paperLines, SkipLiveScan: true,
	}}
	w, err := buildWorld(p.cfg, rc.sizes.paperRecords)
	if err != nil {
		return nil, err
	}
	p.cfg.Lines = w.sys.Cfg.Lines // the pinned population
	w.sys.Close()
	_, sys, err := p.pass(nil, -1, nil)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	p.want = renderPaper(sys)
	p.records = countRecords(sys.Net)
	return p, nil
}

// countRecords simulates the study once into counters.
func countRecords(n *isp.Network) int64 {
	workers := runtime.GOMAXPROCS(0)
	// One counter per worker, a cache line apart; SimulateLines returns
	// after its workers, so the sum needs no further synchronization.
	counts := make([]struct {
		n int64
		_ [56]byte
	}, workers)
	n.SimulateLines(workers,
		func(shard int) func(netflow.Record) {
			return func(netflow.Record) { counts[shard].n++ }
		},
		func(int, *isp.Line) {})
	var total int64
	for i := range counts {
		total += counts[i].n
	}
	return total
}

// pass is what cmd/paper does for its first study: build the world, run
// every stage (the four calls are System.RunAll, taken apart so each can
// carry a span), render every table and figure. The System is returned
// open; the caller closes it. r may be nil for a pass nobody checks.
func (p *paper) pass(tr *tracer, id int, r *report) (passTimes, *iotmap.System, error) {
	var pt passTimes
	ctx := context.Background()
	root := tr.begin("pass", -1, id)
	start := time.Now()
	sp := tr.begin("world.build", root, id)
	sys, err := iotmap.New(p.cfg)
	tr.end(sp)
	if err != nil {
		return pt, nil, err
	}
	stages := []struct {
		name string
		run  func() error
	}{
		{"discovery.run", func() error { return sys.Discover(ctx) }},
		{"validate.run", sys.ValidateAndLocate},
		{"iotmap.traffic_study", sys.TrafficStudy},
		{"iotmap.disrupt", sys.Disrupt},
	}
	for _, st := range stages {
		sp = tr.begin(st.name, root, id)
		err = st.run()
		tr.end(sp)
		if err != nil {
			sys.Close()
			return pt, nil, err
		}
	}
	sp = tr.begin("figures.render_paper", root, id)
	out := renderPaper(sys)
	tr.end(sp)
	pt.job = time.Since(start)
	tr.end(root)
	if r != nil {
		r.ops(p.records, 0, "records simulated")
		r.check(out == p.want, "pass %d: report differs from the reference run of the same seed", id)
	}
	return pt, sys, nil
}

// runPaper measures paper-batch.
func runPaper(rc runConfig, r *report) error {
	p, setup, err := medianSetup(rc.sizes.setups,
		func() (*paper, error) { return setupPaper(rc) },
		func(*paper) {})
	if err != nil {
		return err
	}
	if rc.trace {
		return p.traced(rc, r)
	}
	var clock passClock
	var box boxClock
	var last *iotmap.System
	err = runPasses(rc.budget(1), &box, func(i int) error {
		if last != nil {
			last.Close()
		}
		var pt passTimes
		pt, last, err = p.pass(nil, i, r)
		clock.add(pt)
		return err
	})
	if err != nil {
		return err
	}
	defer last.Close()
	sens := boxSensitivities[rc.workload]
	r.set("setup_s", setup)
	job := r.timing("job_s", clock.job.p50(time.Second), box.read(), sens.job)
	r.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(last)
	r.fillUndefined(job, p.records)
	return nil
}

// traced is the per-layer run: passes alternately traced and untraced,
// then the simulator, the exporter's encoder and the merge on their own.
func (p *paper) traced(rc runConfig, r *report) error {
	tr := newTracer()
	var tracedClock, plainClock passClock
	var last *iotmap.System
	mem := startMem()
	passes := 0
	var box boxClock
	err := runPasses(rc.budget(0.6), &box, func(i int) error {
		if last != nil {
			last.Close()
		}
		passes++
		t, into := tr, &tracedClock
		if !firstTurn(i) {
			t, into = nil, &plainClock
		}
		pt, sys, err := p.pass(t, i, r)
		into.add(pt)
		last = sys
		return err
	})
	if err != nil {
		return err
	}
	defer last.Close()
	mem.report(r, p.records, passes)

	// The simulator into counters, then through the dictionary encoder
	// into nothing: the difference is the encoder.
	workers := runtime.GOMAXPROCS(0)
	discard := make([]io.Writer, workers)
	for i := range discard {
		discard[i] = io.Discard
	}
	var simulate, export, merge, study samples
	err = runPasses(rc.budget(0.4), &box, func(int) error {
		start := time.Now()
		n := countRecords(last.Net)
		simulate.add(time.Since(start))
		r.check(n == p.records, "simulator emitted %d records, the reference run %d", n, p.records)

		start = time.Now()
		st, err := last.Net.SimulateLinesToWireFormat(discard, 0, isp.WireDict)
		export.add(time.Since(start))
		if err != nil {
			return err
		}
		r.check(int64(st.V4Records+st.V6Records) == p.records, "exporter wrote %d records, the reference run %d",
			st.V4Records+st.V6Records, p.records)

		// The memory-mode fill TrafficStudy does, so the merge and the
		// study that end it can be timed apart from the simulation.
		agg := flows.NewShardedAggregator(last.Index, last.World.Days, flows.Options{
			ScannerThreshold: last.Cfg.ScannerThreshold, SamplingRate: last.Net.Cfg.SamplingRate,
			FocusAlias: "T1", FocusRegion: "us-east-1",
		}, workers)
		last.Net.SimulateLines(agg.Shards(),
			func(shard int) func(netflow.Record) { return agg.Shard(shard).Ingest },
			func(shard int, _ *isp.Line) { agg.Shard(shard).EndLine() })
		start = time.Now()
		_, col := agg.Merge()
		merge.add(time.Since(start))
		start = time.Now()
		col.Study()
		study.add(time.Since(start))
		return nil
	})
	if err != nil {
		return err
	}

	n := float64(p.records)
	spans := tr.all()
	layers := layerTimes(spans)
	r.set("isp.records", n)
	r.set("isp.simulate_ns_per_record", simulate.p50(time.Nanosecond)/n)
	r.set("isp.encode_ns_per_record", (export.p50(time.Nanosecond)-simulate.p50(time.Nanosecond))/n)
	r.set("flows.merge_ms", merge.p50(time.Millisecond))
	r.set("flows.study_ms", study.p50(time.Millisecond))
	for _, m := range []struct{ metric, span string }{
		{"world.build_ms", "world.build"},
		{"discovery.run_ms", "discovery.run"},
		{"validate.run_ms", "validate.run"},
		{"iotmap.traffic_study_ms", "iotmap.traffic_study"},
		{"iotmap.disrupt_ms", "iotmap.disrupt"},
		{"figures.render_paper_ms", "figures.render_paper"},
	} {
		r.set(m.metric, layers[m.span].p50(time.Millisecond))
	}
	r.set("trace.coverage", coverage(spans, "pass"))
	r.set("trace.overhead_pct", 100*(tracedClock.job.p50(time.Second)/plainClock.job.p50(time.Second)-1))
	box.report(r)
	return writeTrace(rc.traceOut, traceFile{Workload: rc.workload, Seed: rc.seed, Spans: spans})
}
