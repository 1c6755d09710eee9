// Benchmarks regenerating every table and figure of the paper (one
// benchmark per artifact, per DESIGN.md's experiment index), plus
// pipeline-stage and ablation benchmarks. The shared systems are built
// once; the per-figure benchmarks measure the analysis+rendering cost of
// regenerating each artifact from the collected data.
//
// Run with: go test -bench=. -benchmem
package iotmap_test

import (
	"context"
	"io"
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"iotmap"
	"iotmap/internal/collector"
	"iotmap/internal/core/discovery"
	"iotmap/internal/core/flows"
	"iotmap/internal/core/patterns"
	"iotmap/internal/core/validate"
	"iotmap/internal/dnsdb"
	"iotmap/internal/faultwire"
	"iotmap/internal/figures"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
	"iotmap/internal/scenario"
	"iotmap/internal/world"
)

var (
	onceMain sync.Once
	mainSys  *iotmap.System

	onceOutage sync.Once
	outageSys  *iotmap.System

	onceWire sync.Once
	wireSys  *iotmap.System

	onceWireOutage sync.Once
	wireOutageSys  *iotmap.System
)

func mainSystem(b testing.TB) *iotmap.System {
	b.Helper()
	onceMain.Do(func() {
		sys, err := iotmap.New(iotmap.Config{Seed: 71, Scale: 0.05, Lines: 5000})
		if err != nil {
			panic(err)
		}
		if err := sys.RunAll(context.Background()); err != nil {
			panic(err)
		}
		mainSys = sys
	})
	if mainSys == nil {
		b.Fatal("seed-71 main fixture failed to build (see the first test's panic)")
	}
	return mainSys
}

func outageSystem(b testing.TB) *iotmap.System {
	b.Helper()
	onceOutage.Do(func() {
		sys, err := iotmap.New(iotmap.Config{
			Seed: 71, Scale: 0.05, Lines: 5000,
			Days:   iotmap.OutageStudyDays(),
			Outage: iotmap.AWSOutageScenario(),
		})
		if err != nil {
			panic(err)
		}
		if err := sys.RunAll(context.Background()); err != nil {
			panic(err)
		}
		outageSys = sys
	})
	if outageSys == nil {
		b.Fatal("seed-71 outage fixture failed to build (see the first test's panic)")
	}
	return outageSys
}

// wireSystem is the seed-71 fixture in wire mode, prepared through
// ValidateAndLocate; the golden wire tests drive TrafficStudy
// themselves to vary the stream count.
func wireSystem(b testing.TB) *iotmap.System {
	b.Helper()
	onceWire.Do(func() {
		sys, err := iotmap.New(iotmap.Config{
			Seed: 71, Scale: 0.05, Lines: 5000,
			TrafficMode: iotmap.TrafficModeWire,
		})
		if err != nil {
			panic(err)
		}
		if err := sys.Discover(context.Background()); err != nil {
			panic(err)
		}
		if err := sys.ValidateAndLocate(); err != nil {
			panic(err)
		}
		wireSys = sys
	})
	if wireSys == nil {
		b.Fatal("seed-71 wire fixture failed to build (see the first test's panic)")
	}
	return wireSys
}

// wireOutageSystem is the outage-week twin of wireSystem.
func wireOutageSystem(b testing.TB) *iotmap.System {
	b.Helper()
	onceWireOutage.Do(func() {
		sys, err := iotmap.New(iotmap.Config{
			Seed: 71, Scale: 0.05, Lines: 5000,
			Days:        iotmap.OutageStudyDays(),
			Outage:      iotmap.AWSOutageScenario(),
			TrafficMode: iotmap.TrafficModeWire,
		})
		if err != nil {
			panic(err)
		}
		if err := sys.Discover(context.Background()); err != nil {
			panic(err)
		}
		if err := sys.ValidateAndLocate(); err != nil {
			panic(err)
		}
		wireOutageSys = sys
	})
	if wireOutageSys == nil {
		b.Fatal("seed-71 wire outage fixture failed to build (see the first test's panic)")
	}
	return wireOutageSys
}

func benchRender(b *testing.B, render func() string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := render(); len(out) == 0 {
			b.Fatal("empty artifact")
		}
	}
}

// --- One benchmark per paper artifact -----------------------------------

func BenchmarkTable1(b *testing.B) {
	sys := mainSystem(b)
	benchRender(b, func() string { return figures.Table1(sys) })
}

func BenchmarkTable2(b *testing.B) {
	benchRender(b, figures.Table2)
}

func BenchmarkFigure3(b *testing.B) {
	sys := mainSystem(b)
	benchRender(b, func() string { return figures.Figure3(sys) })
}

func BenchmarkFigure4(b *testing.B) {
	sys := mainSystem(b)
	benchRender(b, func() string { return figures.Figure4(sys) })
}

func BenchmarkFigure5(b *testing.B) {
	sys := mainSystem(b)
	benchRender(b, func() string { return figures.Figure5(sys) })
}

func BenchmarkFigure6(b *testing.B) {
	sys := mainSystem(b)
	benchRender(b, func() string { return figures.Figure6(sys) })
}

func BenchmarkFigure7(b *testing.B) {
	sys := mainSystem(b)
	benchRender(b, func() string { return figures.Figure7(sys) })
}

func BenchmarkFigure8(b *testing.B) {
	sys := mainSystem(b)
	benchRender(b, func() string { return figures.Figure8(sys) })
}

func BenchmarkFigure9(b *testing.B) {
	sys := mainSystem(b)
	benchRender(b, func() string { return figures.Figure9(sys) })
}

func BenchmarkFigure10(b *testing.B) {
	sys := mainSystem(b)
	benchRender(b, func() string { return figures.Figure10(sys) })
}

func BenchmarkFigure11(b *testing.B) {
	sys := mainSystem(b)
	benchRender(b, func() string { return figures.Figure11(sys) })
}

func BenchmarkFigure12(b *testing.B) {
	sys := mainSystem(b)
	benchRender(b, func() string { return figures.Figure12(sys) })
}

func BenchmarkFigure13(b *testing.B) {
	sys := mainSystem(b)
	benchRender(b, func() string { return figures.Figure13(sys) })
}

func BenchmarkFigure14(b *testing.B) {
	sys := mainSystem(b)
	benchRender(b, func() string { return figures.Figure14(sys) })
}

func BenchmarkFigure15(b *testing.B) {
	sys := outageSystem(b)
	benchRender(b, func() string { return figures.Figure15(sys) })
}

func BenchmarkFigure16(b *testing.B) {
	sys := outageSystem(b)
	benchRender(b, func() string { return figures.Figure16(sys) })
}

func BenchmarkSection62(b *testing.B) {
	sys := mainSystem(b)
	benchRender(b, func() string { return figures.Section62(sys) })
}

func BenchmarkValidationReport(b *testing.B) {
	sys := mainSystem(b)
	benchRender(b, func() string { return figures.ValidationReport(sys) })
}

// --- Pipeline stage benchmarks -------------------------------------------

// BenchmarkStageWorldBuild measures ground-truth construction.
func BenchmarkStageWorldBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := world.Build(world.Config{Seed: 5, Scale: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageDiscovery measures the four-channel source fusion
// (without the live IPv6 scan, whose cost is the TLS handshakes).
func BenchmarkStageDiscovery(b *testing.B) {
	sys, err := iotmap.New(iotmap.Config{Seed: 5, Scale: 0.05, SkipLiveScan: true})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Discover(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkStageTrafficDay measures one simulated ISP day through a
// shard partial: the day's records resolve into rows and fold as one
// flush interval.
func BenchmarkStageTrafficDay(b *testing.B) {
	w, err := world.Build(world.Config{Seed: 5, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	net, err := isp.NewNetwork(isp.Config{Seed: 5, Lines: 5000}, w)
	if err != nil {
		b.Fatal(err)
	}
	idx := flows.NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, s.Class.CertVisible())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := flows.NewShardPartial(idx, w.Days, flows.Options{SamplingRate: 100})
		net.SimulateDay(0, p.Ingest)
		p.EndLine()
	}
}

// BenchmarkStageTrafficWeek measures the full single-pass sharded
// simulate→aggregate pipeline over the study week: line-major workers,
// per-line scanner classification, and the shard merge — everything
// TrafficStudy does after the backend index exists.
func BenchmarkStageTrafficWeek(b *testing.B) {
	w, err := world.Build(world.Config{Seed: 5, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	net, err := isp.NewNetwork(isp.Config{Seed: 5, Lines: 5000}, w)
	if err != nil {
		b.Fatal(err)
	}
	idx := flows.NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, s.Class.CertVisible())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := flows.NewShardedAggregator(idx, w.Days, flows.Options{
			ScannerThreshold: 100,
			SamplingRate:     100,
		}, runtime.GOMAXPROCS(0))
		agg.Simulate(net)
		cc, col := agg.Merge()
		if len(cc.Scanners(100)) == 0 {
			b.Fatal("no scanners classified")
		}
		if col.Study().Hours() == 0 {
			b.Fatal("empty study")
		}
	}
}

// BenchmarkStageWireWeek is the wire twin of StageTrafficWeek: the same
// study week, but every line shard is framed into a dictionary stream,
// piped, decoded, validated, rescaled, and folded back into the
// analysis by internal/collector. The delta over StageTrafficWeek is
// the full cost of making the figures come from packets instead of
// memory; the headline contract is StageWireWeek ≤ 1.10×
// StageTrafficWeek.
func BenchmarkStageWireWeek(b *testing.B) {
	w, err := world.Build(world.Config{Seed: 5, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	net, err := isp.NewNetwork(isp.Config{Seed: 5, Lines: 5000}, w)
	if err != nil {
		b.Fatal(err)
	}
	idx := flows.NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, s.Class.CertVisible())
	}
	opts := flows.Options{ScannerThreshold: 100, SamplingRate: 100}
	streams := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := collector.New(collector.Config{Index: idx, Days: w.Days, Opts: opts})
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

// BenchmarkStageWindowWeek is the service-mode week: the same columnar
// dictionary streams as StageWireWeek, but folding into one shared
// sliding flows.Window (hour buckets, per-flush routing) instead of
// per-stream ShardPartials, then merging the trailing view. The delta
// over StageWireWeek is the price of being able to answer "the trailing
// 7 days" at any moment.
func BenchmarkStageWindowWeek(b *testing.B) {
	w, err := world.Build(world.Config{Seed: 5, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	net, err := isp.NewNetwork(isp.Config{Seed: 5, Lines: 5000}, w)
	if err != nil {
		b.Fatal(err)
	}
	idx := flows.NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, s.Class.CertVisible())
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
	w, err := world.Build(world.Config{Seed: 5, Scale: 0.02, Days: days})
	if err != nil {
		b.Fatal(err)
	}
	idx := flows.NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, s.Class.CertVisible())
	}
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

// BenchmarkStageWireWeekFaulty is the wire week under fire: a seeded
// 1% frame corruption injected into every stream, ingested with the
// DropFrame self-healing policy. The delta over StageWireWeek is the
// price of surviving a lossy feed — resync scans, dropped frames, and
// early-ended streams included. A corrupted dictionary delta invalidates
// every later batch that references the lost IDs, so the scanner lines,
// which touch the most backends, can drop out entirely; the bench checks
// that a study survives and that the collector healed.
func BenchmarkStageWireWeekFaulty(b *testing.B) {
	w, err := world.Build(world.Config{Seed: 5, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	net, err := isp.NewNetwork(isp.Config{Seed: 5, Lines: 5000}, w)
	if err != nil {
		b.Fatal(err)
	}
	idx := flows.NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, s.Class.CertVisible())
	}
	opts := flows.Options{ScannerThreshold: 100, SamplingRate: 100}
	streams := runtime.GOMAXPROCS(0)
	sc := faultwire.Uniform(5, 0.01)
	sc.Start = w.Days[0]
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

// BenchmarkStageFederation measures the three-vantage federated
// pipeline over the study week: two residential ISP worlds plus an
// IXP-style vantage simulate into vantage-tagged partials, which
// FederatedMerge folds into per-vantage studies, the exact union, and
// the cross-vantage coverage report. Compare against StageTrafficWeek
// to see what federating ~2.1× the single-vantage line count costs.
func BenchmarkStageFederation(b *testing.B) {
	w, err := world.Build(world.Config{Seed: 5, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	idx := flows.NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, s.Class.CertVisible())
	}
	type vantage struct {
		name string
		net  *isp.Network
	}
	var vantages []vantage
	for _, vc := range []struct {
		name string
		cfg  isp.Config
	}{
		{"isp-a", isp.Config{Seed: 5, Lines: 5000, VantageID: 0}},
		{"isp-b", isp.Config{Seed: 7, Lines: 3000, VantageID: 1}},
		{"ixp", isp.Config{Seed: 9, Lines: 2500, VantageID: 2, SamplingRate: 1024, ScannerFraction: -1}},
	} {
		net, err := isp.NewNetwork(vc.cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		vantages = append(vantages, vantage{vc.name, net})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var parts []*flows.ShardPartial
		for _, v := range vantages {
			agg := flows.NewShardedAggregator(idx, w.Days, flows.Options{
				ScannerThreshold: 100,
				SamplingRate:     v.net.Cfg.SamplingRate,
				Vantage:          v.name,
			}, runtime.GOMAXPROCS(0))
			agg.Simulate(v.net)
			for k := 0; k < agg.Shards(); k++ {
				parts = append(parts, agg.Shard(k))
			}
		}
		fed := flows.FederatedMerge(parts)
		cov := fed.Coverage()
		if cov.Union == 0 || fed.UnionCol.Study().Hours() == 0 {
			b.Fatal("empty federation")
		}
	}
}

// BenchmarkStageFederationParallel is StageFederation with the vantage
// worlds simulated concurrently — the drive FederationStudy now uses.
// Each vantage produces independent vantage-tagged partials, so the
// wall clock should approach the slowest single vantage rather than the
// sum of all three; the delta to StageFederation is the tracked
// speedup.
func BenchmarkStageFederationParallel(b *testing.B) {
	w, err := world.Build(world.Config{Seed: 5, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	idx := flows.NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, s.Class.CertVisible())
	}
	idx.Build()
	type vantage struct {
		name string
		net  *isp.Network
	}
	var vantages []vantage
	for _, vc := range []struct {
		name string
		cfg  isp.Config
	}{
		{"isp-a", isp.Config{Seed: 5, Lines: 5000, VantageID: 0}},
		{"isp-b", isp.Config{Seed: 7, Lines: 3000, VantageID: 1}},
		{"ixp", isp.Config{Seed: 9, Lines: 2500, VantageID: 2, SamplingRate: 1024, ScannerFraction: -1}},
	} {
		net, err := isp.NewNetwork(vc.cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		vantages = append(vantages, vantage{vc.name, net})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partsPer := make([][]*flows.ShardPartial, len(vantages))
		var wg sync.WaitGroup
		for vi, v := range vantages {
			wg.Add(1)
			go func(vi int, v vantage) {
				defer wg.Done()
				agg := flows.NewShardedAggregator(idx, w.Days, flows.Options{
					ScannerThreshold: 100,
					SamplingRate:     v.net.Cfg.SamplingRate,
					Vantage:          v.name,
				}, runtime.GOMAXPROCS(0))
				agg.Simulate(v.net)
				parts := make([]*flows.ShardPartial, agg.Shards())
				for k := range parts {
					parts[k] = agg.Shard(k)
				}
				partsPer[vi] = parts
			}(vi, v)
		}
		wg.Wait()
		var parts []*flows.ShardPartial
		for _, p := range partsPer {
			parts = append(parts, p...)
		}
		fed := flows.FederatedMerge(parts)
		cov := fed.Coverage()
		if cov.Union == 0 || fed.UnionCol.Study().Hours() == 0 {
			b.Fatal("empty federation")
		}
	}
}

// BenchmarkStageNetFlowExport measures the v5 wire path end-to-end:
// simulate a day, encode every IPv4 record into v5 packets, decode back.
func BenchmarkStageNetFlowExport(b *testing.B) {
	w, err := world.Build(world.Config{Seed: 5, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	net, err := isp.NewNetwork(isp.Config{Seed: 5, Lines: 2000}, w)
	if err != nil {
		b.Fatal(err)
	}
	var recs []netflow.Record
	net.SimulateDay(0, func(r netflow.Record) {
		if r.IsV4() {
			recs = append(recs, r)
		}
	})
	if len(recs) == 0 {
		b.Fatal("no records")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(recs); off += netflow.V5MaxRecords {
			end := off + netflow.V5MaxRecords
			if end > len(recs) {
				end = len(recs)
			}
			pkt, err := netflow.EncodeV5(netflow.V5Header{}, recs[off:end])
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := netflow.DecodeV5(pkt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablations (DESIGN.md §6) --------------------------------------------

// BenchmarkAblationSources compares single-source discovery against the
// full fusion; the reported custom metric is the discovered-address
// count, the quantity Figure 3 is about.
func BenchmarkAblationSources(b *testing.B) {
	w, err := world.Build(world.Config{Seed: 5, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	censysSvc := w.BuildCensys()
	pdns := w.BuildDNSDB()
	cases := []struct {
		name string
		in   discovery.Inputs
	}{
		{"certs-only", discovery.Inputs{Patterns: patterns.All(), Censys: censysSvc, Days: w.Days, Seed: 5}},
		{"pdns-only", discovery.Inputs{Patterns: patterns.All(), PDNS: pdns, Days: w.Days, Seed: 5}},
		{"fusion", discovery.Inputs{
			Patterns: patterns.All(), Censys: censysSvc, PDNS: pdns,
			Zones: w.ZoneStores(), Views: world.VantagePointViews, Days: w.Days, Seed: 5,
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			total := 0
			for i := 0; i < b.N; i++ {
				res, err := discovery.Run(context.Background(), c.in)
				if err != nil {
					b.Fatal(err)
				}
				total = 0
				for _, r := range res {
					total += len(r.UnionAddrs())
				}
			}
			b.ReportMetric(float64(total), "addrs")
		})
	}
}

// BenchmarkAblationScannerThreshold sweeps the Figure 5 threshold and
// reports the excluded-line count per choice.
func BenchmarkAblationScannerThreshold(b *testing.B) {
	sys := mainSystem(b)
	for _, threshold := range []int{10, 100, 1000} {
		b.Run(benchName("threshold", threshold), func(b *testing.B) {
			b.ReportAllocs()
			var scanners int
			for i := 0; i < b.N; i++ {
				scanners = len(sys.Contacts.Scanners(threshold))
			}
			b.ReportMetric(float64(scanners), "scanners")
		})
	}
}

// BenchmarkAblationSharedThreshold sweeps the §3.4 shared-IP threshold.
func BenchmarkAblationSharedThreshold(b *testing.B) {
	sys := mainSystem(b)
	period := dnsdb.TimeRange{}
	addrs := sys.Discovery["google"].UnionAddrs()
	for _, threshold := range []int{2, 5, 20} {
		b.Run(benchName("threshold", threshold), func(b *testing.B) {
			b.ReportAllocs()
			var shared int
			for i := 0; i < b.N; i++ {
				_, sh, _ := validateFilter(addrs, sys.PDNS, period, threshold)
				shared = len(sh)
			}
			b.ReportMetric(float64(shared), "shared")
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "-" + strconv.Itoa(v)
}

// validateFilter adapts the §3.4 filter for the ablation bench.
func validateFilter(addrs []netip.Addr, pdns *dnsdb.DB, tr dnsdb.TimeRange, threshold int) ([]netip.Addr, []netip.Addr, []validate.Classification) {
	return validate.FilterShared(addrs, patterns.All(), pdns, tr, threshold)
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
	sys, err := iotmap.New(iotmap.Config{
		Seed: 3, Scale: 0.02, Lines: 900, SkipLiveScan: true,
		Days:        iotmap.OutageStudyDays(),
		TrafficMode: iotmap.TrafficModeMemory, WireStreams: 3,
		Vantages: []iotmap.VantageSpec{
			{Name: "isp-a"},
			{Name: "isp-b", Lines: 600},
			{Name: "ixp", Lines: 700, SamplingRate: 1024, ScannerFraction: -1},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Discover(context.Background()); err != nil {
		b.Fatal(err)
	}
	if err := sys.ValidateAndLocate(); err != nil {
		b.Fatal(err)
	}
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
