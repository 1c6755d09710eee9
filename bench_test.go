// Benchmarks for what the repository benchmark (benchmark/, see
// docs/benchmarks.md) does not time: the faulty wire week, the
// three-vantage federation, the disruption suite, the validation layer,
// and the window stages, whose allocs/op and B/op carry the eviction
// and bucket-recycling signal. CI records them with cmd/bench2json and
// gates them against BENCH_GATE.json.
//
// Run with: go test -run '^$' -bench . -benchtime 1x -count 5 -cpu 2 -benchmem .
package iotmap_test

import (
	"context"
	"io"
	"runtime"
	"testing"
	"time"

	"iotmap"
	"iotmap/internal/collector"
	"iotmap/internal/core/flows"
	"iotmap/internal/faultwire"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
	"iotmap/internal/scenario"
	"iotmap/internal/world"
)

// benchWorld builds the world and a backend index over every server in
// it: the set-up the wire and window stages share, outside the timer.
func benchWorld(b *testing.B, cfg world.Config) (*world.World, *flows.BackendIndex) {
	b.Helper()
	w, err := world.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	idx := flows.NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, s.Class.CertVisible())
	}
	return w, idx
}

// validatedSystem runs a System through ValidateAndLocate, outside the
// timer, for the benches that time a later stage.
func validatedSystem(b *testing.B, cfg iotmap.Config) *iotmap.System {
	b.Helper()
	sys, err := iotmap.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	if err := sys.Discover(context.Background()); err != nil {
		b.Fatal(err)
	}
	if err := sys.ValidateAndLocate(); err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkValidateWeek is the validation layer on its own: discovery
// runs once outside the timer, ValidateAndLocate (the §3.4 shared-IP
// filter, geolocation, Table 1 characterization and the ground-truth
// checks, one provider per pool job) inside it. us/candidate is the cost
// per discovered address the layer classifies.
func BenchmarkValidateWeek(b *testing.B) {
	sys, err := iotmap.New(iotmap.Config{Seed: 47, Scale: 0.1, SkipLiveScan: true})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Discover(context.Background()); err != nil {
		b.Fatal(err)
	}
	candidates := 0
	for _, res := range sys.Discovery {
		candidates += len(res.Union())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.ValidateAndLocate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(candidates), "us/candidate")
}

// BenchmarkStageWindowWeek is the service-mode week: the study week
// framed into GOMAXPROCS columnar dictionary streams, piped, decoded
// and folded into one shared sliding flows.Window (hour buckets,
// per-flush routing) instead of per-stream ShardPartials, then the
// trailing view merged.
func BenchmarkStageWindowWeek(b *testing.B) {
	w, idx := benchWorld(b, world.Config{Seed: 5, Scale: 0.05})
	net, err := isp.NewNetwork(isp.Config{Seed: 5, Lines: 5000}, w)
	if err != nil {
		b.Fatal(err)
	}
	opts := flows.Options{ScannerThreshold: 100, SamplingRate: 100}
	winOpts := opts
	winOpts.SamplingRate = 1
	streams := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win, err := flows.NewWindow(idx, w.Days[0], len(w.Days)*24, winOpts)
		if err != nil {
			b.Fatal(err)
		}
		col, err := collector.New(collector.Config{Index: idx, Days: w.Days, Opts: opts, Window: win})
		if err != nil {
			b.Fatal(err)
		}
		writers, wait := col.IngestPipes(streams)
		if _, err := net.SimulateLinesToWire(writers, 0); err != nil {
			b.Fatal(err)
		}
		if err := wait(); err != nil {
			b.Fatal(err)
		}
		cc, fcol := col.Finalize()
		if len(cc.Scanners(100)) == 0 {
			b.Fatal("no scanners classified")
		}
		if fcol.Study().Hours() == 0 {
			b.Fatal("empty study")
		}
	}
}

// BenchmarkWindowSteadyState is the eviction-dominated regime the week
// benches never reach: a 30-day chronological feed through a 7-day
// window. Once the feed passes day 7 every advance retires the oldest
// hour bucket, so the measured cost is dominated by eviction plus
// recycled-arena refills — the daemon's steady state — rather than the
// cold window fill that StageWindowWeek measures. The feed is day-major
// (SimulateDay), so hours arrive nearly in order and nothing is late.
func BenchmarkWindowSteadyState(b *testing.B) {
	days := make([]time.Time, 30)
	start := world.StudyDays()[0]
	for i := range days {
		days[i] = start.AddDate(0, 0, i)
	}
	w, idx := benchWorld(b, world.Config{Seed: 5, Scale: 0.02, Days: days})
	winOpts := flows.Options{ScannerThreshold: 100, SamplingRate: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh Network each iteration: device homing state persists on
		// the Network across SimulateDay calls, so reusing one would feed
		// different records after the first iteration.
		net, err := isp.NewNetwork(isp.Config{Seed: 5, Lines: 2000}, w)
		if err != nil {
			b.Fatal(err)
		}
		win, err := flows.NewWindow(idx, days[0], 7*24, winOpts)
		if err != nil {
			b.Fatal(err)
		}
		// One producer: records resolve to rows, flushed every 2048.
		tables := win.NewWireTables()
		var batch netflow.RecordBatch
		sink := func(r netflow.Record) {
			tables.AppendRecord(&batch, r)
			if batch.Len() == 2048 {
				win.IngestBatch(tables, &batch)
				batch.Reset()
			}
		}
		for day := range days {
			net.SimulateDay(day, sink)
		}
		win.IngestBatch(tables, &batch)
		st := win.Stats()
		if st.EvictedHours == 0 {
			b.Fatal("steady-state bench never evicted: window not advancing")
		}
		if st.LateRecords != 0 {
			b.Fatalf("chronological feed produced %d late records", st.LateRecords)
		}
		if _, s := win.Study(); s.Hours() == 0 {
			b.Fatal("empty trailing study")
		}
	}
}

// BenchmarkStageWireWeekFaulty is the wire week under fire: the study
// week framed into GOMAXPROCS dictionary streams with a seeded 1% frame
// corruption injected into every stream, ingested with the DropFrame
// self-healing policy — resync scans, dropped frames, and early-ended
// streams included. A corrupted dictionary delta invalidates every
// later batch that references the lost IDs, so the scanner lines, which
// touch the most backends, can drop out entirely; the bench checks that
// a study survives and that the collector healed.
func BenchmarkStageWireWeekFaulty(b *testing.B) {
	w, idx := benchWorld(b, world.Config{Seed: 5, Scale: 0.05})
	net, err := isp.NewNetwork(isp.Config{Seed: 5, Lines: 5000}, w)
	if err != nil {
		b.Fatal(err)
	}
	opts := flows.Options{ScannerThreshold: 100, SamplingRate: 100}
	streams := runtime.GOMAXPROCS(0)
	sc := &faultwire.Scenario{Seed: 5, Start: w.Days[0], Rules: []faultwire.Rule{
		{Stream: -1, Faults: faultwire.Faults{CorruptProb: 0.01}},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := collector.New(collector.Config{
			Index: idx, Days: w.Days, Opts: opts,
			Policy: collector.DropFrame,
			Tap: func(stream int, _ string, r io.Reader) io.Reader {
				return sc.Wrap(stream, "", r)
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		writers, wait := col.IngestPipes(streams)
		if _, err := net.SimulateLinesToWire(writers, 0); err != nil {
			b.Fatal(err)
		}
		if err := wait(); err != nil {
			b.Fatal(err)
		}
		if _, fcol := col.Finalize(); fcol.Study().Hours() == 0 {
			b.Fatal("empty study")
		}
		if st := col.Stats(); st.DroppedFrames+st.ResyncEvents == 0 {
			b.Fatal("the collector healed nothing")
		}
	}
	b.StopTimer()
	if sc.Totals().Corrupted == 0 {
		b.Fatal("the fault injector never fired")
	}
}

// BenchmarkStageFederation is System.FederationStudy over three
// vantages: two residential ISP worlds plus an IXP-style vantage, each
// built and simulated into vantage-tagged partials on the worker pool,
// which FederatedMerge folds into per-vantage studies, the exact union,
// and the cross-vantage coverage report.
func BenchmarkStageFederation(b *testing.B) {
	sys := validatedSystem(b, iotmap.Config{
		Seed: 5, Scale: 0.05, Lines: 5000, SkipLiveScan: true,
		Vantages: []iotmap.VantageSpec{
			{Name: "isp-a"},
			{Name: "isp-b", Seed: 7, Lines: 3000},
			{Name: "ixp", Seed: 9, Lines: 2500, SamplingRate: 1024, ScannerFraction: -1},
		},
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.FederationStudy(); err != nil {
			b.Fatal(err)
		}
		if fed := sys.Federation; fed.Coverage.Union == 0 || fed.Union.Hours() == 0 {
			b.Fatal("empty federation")
		}
	}
}

// BenchmarkStageDisruptionSuite measures the declarative scenario
// engine end to end: compiling the paper-week preset (hijack, regional
// outage with feed death, AS migration) and driving its per-step plus
// cumulative what-ifs through the federated pipeline against a clean
// baseline. Memory-mode federation: the suite's cost is the repeated
// federation studies, not wire framing. Memory mode has no stream for
// the preset's feed-kill rule to fault, so the bench drops it, as
// DisruptionSuite requires.
func BenchmarkStageDisruptionSuite(b *testing.B) {
	sys := validatedSystem(b, iotmap.Config{
		Seed: 3, Scale: 0.02, Lines: 900, SkipLiveScan: true,
		Days:        iotmap.OutageStudyDays(),
		TrafficMode: iotmap.TrafficModeMemory,
		Vantages: []iotmap.VantageSpec{
			{Name: "isp-a"},
			{Name: "isp-b", Lines: 600},
			{Name: "ixp", Lines: 700, SamplingRate: 1024, ScannerFraction: -1},
		},
	})
	suite := scenario.Presets(5)[scenario.PresetPaperWeek]
	for i := range suite.Steps {
		suite.Steps[i].Wire = nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Federation = nil // re-run the baseline too: whole-suite cost
		res, err := sys.DisruptionSuite(suite)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Scenarios) != 4 {
			b.Fatalf("scenarios = %d", len(res.Scenarios))
		}
	}
}
