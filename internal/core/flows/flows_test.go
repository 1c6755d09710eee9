package flows

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"iotmap/internal/geo"
	"iotmap/internal/iotserver"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
	"iotmap/internal/proto"
	"iotmap/internal/world"
)

var (
	cachedStudy *Study
	cachedIdx   *BackendIndex
	cachedCC    *ContactCounter
	cachedWorld *world.World
	cachedNet   *isp.Network

	cachedRefCC  *ContactCounter
	cachedRefCol *Collector
)

// testShards forces a multi-shard pipeline even on single-core test
// machines, so the merge paths are always exercised.
const testShards = 4

// buildStudy runs the single-pass sharded pipeline once per test binary.
func buildStudy(t *testing.T) (*world.World, *Study, *ContactCounter) {
	t.Helper()
	if cachedStudy != nil {
		return cachedWorld, cachedStudy, cachedCC
	}
	w, err := world.Build(world.Config{Seed: 41, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	net, err := isp.NewNetwork(isp.Config{Seed: 41, Lines: 6000}, w)
	if err != nil {
		t.Fatal(err)
	}
	idx := NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, certVisible(s.Class))
	}
	cc, col := runPipeline(net, idx, w, testShards)
	cachedWorld, cachedStudy, cachedCC, cachedIdx, cachedNet = w, col.Study(), cc, idx, net
	return w, cachedStudy, cc
}

// runPipeline drives the single-pass pipeline with a fixed shard count,
// as memory mode does (ShardedAggregator.Simulate).
func runPipeline(net *isp.Network, idx *BackendIndex, w *world.World, shards int) (*ContactCounter, *Collector) {
	agg := pipelineAggregator(net, idx, w, shards)
	agg.Simulate(net)
	return agg.Merge()
}

// runRecordPipeline is runPipeline through the record adapters: the
// simulator's records into Ingest/EndLine.
func runRecordPipeline(net *isp.Network, idx *BackendIndex, w *world.World, shards int) (*ContactCounter, *Collector) {
	agg := pipelineAggregator(net, idx, w, shards)
	net.SimulateLines(agg.Shards(),
		func(shard int) func(netflow.Record) { return agg.Shard(shard).Ingest },
		func(shard int, _ *isp.Line) { agg.Shard(shard).EndLine() },
	)
	return agg.Merge()
}

func pipelineAggregator(net *isp.Network, idx *BackendIndex, w *world.World, shards int) *ShardedAggregator {
	return NewShardedAggregator(idx, w.Days, studyOpts(net), shards)
}

// studyOpts is the analysis configuration of the cached study.
func studyOpts(net *isp.Network) Options {
	return Options{
		ScannerThreshold: 100,
		SamplingRate:     net.Cfg.SamplingRate,
		FocusAlias:       "T1",
		FocusRegion:      "us-east-1",
	}
}

func TestScannerCurveShape(t *testing.T) {
	_, _, cc := buildStudy(t)
	curve := cc.Curve([]int{10, 50, 100, 500, 1000})
	if len(curve) != 5 {
		t.Fatalf("curve points = %d", len(curve))
	}
	// Scanner count must fall monotonically with the threshold, and the
	// coverage must not collapse when scanners are excluded.
	for i := 1; i < len(curve); i++ {
		if curve[i].Scanners > curve[i-1].Scanners {
			t.Fatalf("scanner count rose with threshold: %+v", curve)
		}
		if curve[i].CoveragePct < curve[i-1].CoveragePct-0.001 {
			t.Fatalf("coverage fell with threshold: %+v", curve)
		}
	}
	if curve[0].Scanners == 0 {
		t.Error("threshold 10 should flag some lines")
	}
	if curve[2].CoveragePct <= 5 || curve[2].CoveragePct >= 90 {
		t.Errorf("coverage at threshold 100 = %.1f%%, want a partial view", curve[2].CoveragePct)
	}
}

func TestVisibilityShape(t *testing.T) {
	_, study, _ := buildStudy(t)
	// T2 (Google): devices spread over the whole fleet → near-complete.
	t2v4, _ := study.Visibility("T2")
	if t2v4 < 70 {
		t.Errorf("T2 visibility = %.1f%%, want high", t2v4)
	}
	// T3 (Microsoft): localized homing → partial.
	t3v4, _ := study.Visibility("T3")
	if t3v4 <= 0 || t3v4 >= t2v4 {
		t.Errorf("T3 visibility = %.1f%% vs T2 %.1f%%", t3v4, t2v4)
	}
	// O3/O5 (Baidu/Huawei): no European device base. Scanner residue
	// below the exclusion threshold may still touch a few of their IPs,
	// but their activity must stay under the paper's 15-lines-per-hour
	// reporting cutoff (Section 5.3).
	for _, alias := range []string{"O3", "O5"} {
		if peak := study.ActiveLines(alias).Max(); peak >= 15 {
			t.Errorf("%s hourly lines peak = %.0f, want below the reporting cutoff", alias, peak)
		}
	}
}

func TestCertOnlyDecrease(t *testing.T) {
	_, study, _ := buildStudy(t)
	// T2 (Google, SNI-only): nearly all lines lost without DNS sources.
	// At paper scale the decrease is ≈100%; at test scale the one
	// floored leak server is visited by a visible share of the rotating
	// device population, so the bound is looser.
	t2, _ := study.CertOnlyDecrease("T2")
	if t2 < 70 {
		t.Errorf("T2 cert-only decrease = %.1f%%, want ≈100%% at scale", t2)
	}
	// D6 (Sierra: mTLS MQTT + SNI web): same.
	d6, _ := study.CertOnlyDecrease("D6")
	if d6 < 90 {
		t.Errorf("D6 cert-only decrease = %.1f%%, want ≈100%%", d6)
	}
	// T3 (Microsoft, default certs): hardly any loss.
	t3, _ := study.CertOnlyDecrease("T3")
	if t3 > 10 {
		t.Errorf("T3 cert-only decrease = %.1f%%, want ≈0%%", t3)
	}
}

func TestActivityShapes(t *testing.T) {
	_, study, _ := buildStudy(t)
	// T1 evening peak: averaged over days, 19-21h local beats 02-04h.
	t1 := study.ActiveLines("T1")
	evening, night := 0.0, 0.0
	for d := 0; d < 8; d++ {
		for h := 18; h <= 20; h++ { // UTC 18-20 = 19-21 local
			evening += t1.Values[d*24+h]
		}
		for h := 1; h <= 3; h++ {
			night += t1.Values[d*24+h]
		}
	}
	if evening <= night*1.5 {
		t.Errorf("T1 evening/night = %.0f/%.0f, want strong peak", evening, night)
	}
	// T2 flat: peak/mean must stay close to 1.
	t2 := study.ActiveLines("T2")
	mean := t2.Total() / float64(t2Len(t2.Values))
	if t2.Max() > 2*mean {
		t.Errorf("T2 not flat: max=%.0f mean=%.1f", t2.Max(), mean)
	}
	// Orders of magnitude: T1 ≫ T4.
	t4 := study.ActiveLines("T4")
	if t1.Max() < 5*t4.Max() {
		t.Errorf("T1 max=%.0f should dwarf T4 max=%.0f", t1.Max(), t4.Max())
	}
}

func t2Len(v []float64) int {
	n := 0
	for _, x := range v {
		if x > 0 {
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return n
}

// Figure 9's paradox: T1 ≈ T3 in total volume despite the line gap;
// T2 ≈ T3 in lines but an order of magnitude apart in volume.
func TestVolumeRelations(t *testing.T) {
	_, study, _ := buildStudy(t)
	t1 := study.Downstream("T1").Total()
	t2 := study.Downstream("T2").Total()
	t3 := study.Downstream("T3").Total()
	if t1 == 0 || t2 == 0 || t3 == 0 {
		t.Fatal("zero volumes")
	}
	if r := t1 / t3; r < 0.2 || r > 5 {
		t.Errorf("T1/T3 volume ratio = %.2f, want same order", r)
	}
	if r := t3 / t2; r < 4 {
		t.Errorf("T3/T2 volume ratio = %.2f, want ≳an order of magnitude", r)
	}
	l1, _ := study.LineCount("T1")
	l3, _ := study.LineCount("T3")
	if l1 < 4*l3 {
		t.Errorf("T1 lines=%d vs T3 lines=%d, want ≈10×", l1, l3)
	}
}

func TestRatiosSpread(t *testing.T) {
	_, study, _ := buildStudy(t)
	heavy, light := 0, 0
	for _, alias := range study.Aliases() {
		r := study.OverallRatio(alias)
		if r == 0 {
			continue
		}
		if r > 1.5 {
			heavy++
		}
		if r < 0.67 {
			light++
		}
	}
	if heavy == 0 || light == 0 {
		t.Errorf("ratio spread missing: heavy=%d light=%d", heavy, light)
	}
	// T2 (Google) is upload-heavy by profile (telemetry ingest).
	if r := study.OverallRatio("T2"); r == 0 || r > 1 {
		t.Errorf("T2 ratio = %.2f, want <1", r)
	}
}

func TestPortMixes(t *testing.T) {
	_, study, _ := buildStudy(t)
	// D4 (PTC): TCP/61616 carries the bulk.
	shares := study.PortShares("D4")
	if len(shares) == 0 {
		t.Fatal("no D4 ports")
	}
	if shares[0].Port.Port != 61616 || shares[0].Share < 0.4 {
		t.Errorf("D4 top port = %+v, want TCP/61616 dominant", shares[0])
	}
	// MQTTS on its standard port appears for most aliases.
	withMQTTS := 0
	for _, alias := range study.Aliases() {
		for _, ps := range study.PortShares(alias) {
			if ps.Port.Port == 8883 && ps.Share > 0.01 {
				withMQTTS++
				break
			}
		}
	}
	if withMQTTS < len(study.Aliases())/2 {
		t.Errorf("MQTTS present for only %d aliases", withMQTTS)
	}
	// Top ports include 443 and 8883.
	top := study.TopPorts(7)
	seen := map[uint16]bool{}
	for _, p := range top {
		seen[p.Port] = true
	}
	if !seen[443] || !seen[8883] {
		t.Errorf("top ports = %v", top)
	}
}

// Figure 12a: the vast majority of line-days stay below 10 MB in both
// directions; Figure 12c: the AMQP port shows a heavy tail.
func TestDailyVolumeECDFs(t *testing.T) {
	_, study, _ := buildStudy(t)
	down, up := study.DailyECDFs()
	if down.Len() == 0 || up.Len() == 0 {
		t.Fatal("no samples")
	}
	if p := down.At(10e6); p < 0.90 {
		t.Errorf("P(down <= 10MB) = %.3f, want ≥0.90", p)
	}
	if p := up.At(10e6); p < 0.90 {
		t.Errorf("P(up <= 10MB) = %.3f, want ≥0.90", p)
	}
	amqp := study.PortDailyECDF(proto.PortKey{Transport: proto.TCP, Port: 5671})
	if amqp.Len() == 0 {
		t.Fatal("no AMQP samples")
	}
	heavyShare := amqp.Between(50e6, 2e9)
	if heavyShare < 0.05 {
		t.Errorf("AMQP heavy share = %.3f, want a visible 100MB-1GB tail", heavyShare)
	}
	// The web port must NOT show that tail.
	web := study.PortDailyECDF(proto.PortKey{Transport: proto.TCP, Port: 443})
	if web.Len() > 0 && web.Between(50e6, 2e9) > heavyShare {
		t.Error("443 shows a heavier tail than AMQP")
	}
}

func TestContinentShares(t *testing.T) {
	_, study, _ := buildStudy(t)
	lines := study.LineContinentShares()
	if lines[CatEUOnly] < 0.25 {
		t.Errorf("EU-only line share = %.2f, want dominant bucket", lines[CatEUOnly])
	}
	if lines[CatUSOnly] <= 0.05 {
		t.Errorf("US-only line share = %.2f, want substantial", lines[CatUSOnly])
	}
	servers := study.ServerContinentShares()
	if servers[geo.NorthAmerica] <= servers[geo.Europe] {
		t.Errorf("server shares: NA=%.2f EU=%.2f, want NA majority", servers[geo.NorthAmerica], servers[geo.Europe])
	}
	traffic := study.TrafficContinentShares()
	if traffic[geo.Europe] <= traffic[geo.NorthAmerica] {
		t.Errorf("traffic shares: EU=%.2f NA=%.2f, want EU majority", traffic[geo.Europe], traffic[geo.NorthAmerica])
	}
	if cross := traffic[geo.NorthAmerica] + traffic[geo.Asia]; cross < 0.15 {
		t.Errorf("cross-continent traffic = %.2f, want a substantial share", cross)
	}
}

func TestFocusSeriesPresent(t *testing.T) {
	_, study, _ := buildStudy(t)
	if study.FocusDownAll == nil || study.FocusDownRegion == nil || study.FocusDownEU == nil {
		t.Fatal("focus series missing")
	}
	if study.FocusDownAll.Total() == 0 {
		t.Fatal("focus alias has no traffic")
	}
	if study.FocusDownRegion.Total() == 0 {
		t.Error("us-east-1 focus region has no traffic (region bias broken)")
	}
	if study.FocusDownEU.Total() < study.FocusDownRegion.Total() {
		t.Error("EU should out-carry us-east-1 for a European ISP")
	}
	if study.FocusLinesAll.Max() == 0 {
		t.Error("no focus line counts")
	}
}

// twoPass is the explicit two-pass reference every drive of the week
// must equal — a ContactCounter over the recorded feed, then a Collector
// with the counter's over-threshold addresses excluded, over the same
// feed — built once per test binary.
func twoPass(t *testing.T) (*world.World, *ContactCounter, *Collector) {
	t.Helper()
	w, _, _ := buildStudy(t)
	if cachedRefCC == nil {
		var recs []netflow.Record
		simulate(cachedNet, func(r netflow.Record) { recs = append(recs, r) })
		cc := NewContactCounter(cachedIdx)
		for _, r := range recs {
			countRecord(cc, r)
		}
		col := NewCollector(cachedIdx, w.Days, studyOpts(cachedNet))
		scanners := cc.Scanners(100)
		for _, r := range recs {
			ingestRecord(col, r, scanners)
		}
		cachedRefCC, cachedRefCol = cc, col
	}
	return w, cachedRefCC, cachedRefCol
}

// Each drive of the week into the aggregates below (and the whole-week
// window in window_test.go) equals the two-pass reference exactly, not
// within a tolerance: every aggregate is sets or integer-valued sums.

// TestPipelineMatchesSequentialTwoPass: memory mode's sharded
// single-pass pipeline equals the two-pass reference.
func TestPipelineMatchesSequentialTwoPass(t *testing.T) {
	w, refCC, refCol := twoPass(t)
	cc, col := runPipeline(cachedNet, cachedIdx, w, testShards)
	assertWindowEquals(t, cc, col, refCC, refCol, 100)
}

// TestShardCountInvariance: the one-shard pipeline equals the same
// reference as the sharded one.
func TestShardCountInvariance(t *testing.T) {
	w, refCC, refCol := twoPass(t)
	cc, col := runPipeline(cachedNet, cachedIdx, w, 1)
	assertWindowEquals(t, cc, col, refCC, refCol, 100)
}

// TestIngestLineMatchesRecordPath: the record adapters (Ingest/EndLine)
// fold the week into the same contacts and study as the rows, at one
// shard and at several.
func TestIngestLineMatchesRecordPath(t *testing.T) {
	w, refCC, refCol := twoPass(t)
	for name, shards := range map[string]int{"records-1": 1, "records-sharded": testShards} {
		t.Run(name, func(t *testing.T) {
			cc, col := runRecordPipeline(cachedNet, cachedIdx, w, shards)
			assertWindowEquals(t, cc, col, refCC, refCol, 100)
		})
	}
}

// TestMergeSizesColumnsOnce: merging three shard partials, whose lines
// are disjoint, sizes every per-line column and slot arena once, the
// slots' hour bits included, so each ends with cap == len, and the
// merged study still equals the two-pass reference. A focus hour or
// port-line column that no donor holds is the receiver's own, grown by
// its ingest, and the merge leaves it alone.
func TestMergeSizesColumnsOnce(t *testing.T) {
	w, refCC, refCol := twoPass(t)
	agg := pipelineAggregator(cachedNet, cachedIdx, w, 3)
	agg.Simulate(cachedNet)
	donorSlots := 0
	donorPorts := map[proto.PortKey]bool{}
	donorFocus := [2]bool{}
	for i := 1; i < agg.Shards(); i++ {
		d := agg.Shard(i).col
		donorSlots += len(d.laKeys)
		for _, k := range d.lpKeys {
			donorPorts[d.ports.keys[k.port]] = true
		}
		for f, h := range [][]uint64{d.focusHoursRegion, d.focusHoursEU} {
			donorFocus[f] = donorFocus[f] || len(h) > 0
		}
	}
	cc, col := agg.Merge()
	assertWindowEquals(t, cc, col, refCC, refCol, 100)

	exact := func(name string, column any) {
		t.Helper()
		if v := reflect.ValueOf(column); v.Len() != v.Cap() {
			t.Errorf("%s: len %d, cap %d", name, v.Len(), v.Cap())
		}
	}
	exact("cc.lines.addrs", cc.lines.addrs)
	exact("cc.lines.plan", cc.lines.plan[0])
	exact("cc.bits", cc.bits)
	exact("cc.n", cc.n)
	exact("lines.addrs", col.lines.addrs)
	exact("lines.plan", col.lines.plan[0])
	exact("lineDaily", col.lineDaily)
	exact("lineConts", col.lineConts)
	exact("lineAliasBits", col.lineAliasBits)
	exact("lineCertBits", col.lineCertBits)
	exact("laIdx", col.laIdx)
	exact("laKeys", col.laKeys)
	exact("laDaily", col.laDaily)
	exact("laHours", col.laHours)
	exact("lpKeys", col.lpKeys)
	exact("lpDaily", col.lpDaily)
	if donorSlots == 0 || len(donorPorts) == 0 || donorFocus == [2]bool{} {
		t.Fatal("the donors hold no hour slot, port-line or focus hour column")
	}
	for p, k := range col.ports.keys {
		if donorPorts[k] {
			exact(fmt.Sprintf("lpIdx[%v]", k), col.lpIdx[p])
		}
	}
	for f, h := range [][]uint64{col.focusHoursRegion, col.focusHoursEU} {
		if donorFocus[f] {
			exact(fmt.Sprintf("focus hours %d", f), h)
		}
	}
}

// TestCollectorMergeEquivalence: Collector.Merge over an arbitrary
// partition of a record stream equals one sequential collector. The
// partition here is round-robin — deliberately not line-contiguous —
// because the merge itself must be order- and grouping-independent.
func TestCollectorMergeEquivalence(t *testing.T) {
	w, _, _ := buildStudy(t)
	net := cachedNet

	const shards = 5
	mk := func() *Collector { return NewCollector(cachedIdx, w.Days, studyOpts(net)) }
	seq := mk()
	parts := make([]*Collector, shards)
	for i := range parts {
		parts[i] = mk()
	}
	i := 0
	simulate(net, func(r netflow.Record) {
		ingestRecord(seq, r, nil)
		ingestRecord(parts[i%shards], r, nil)
		i++
	})
	merged := parts[0]
	merged.Merge(parts[1:]...)
	if !reflect.DeepEqual(named(merged.Study()), named(seq.Study())) {
		t.Error("merged round-robin shards differ from sequential collector")
	}
}

// TestContactCounterMerge: shard counters merge to the sequential one.
func TestContactCounterMerge(t *testing.T) {
	w, _, _ := buildStudy(t)
	_ = w
	seq := NewContactCounter(cachedIdx)
	a, b := NewContactCounter(cachedIdx), NewContactCounter(cachedIdx)
	i := 0
	simulate(cachedNet, func(r netflow.Record) {
		countRecord(seq, r)
		if i%2 == 0 {
			countRecord(a, r)
		} else {
			countRecord(b, r)
		}
		i++
	})
	a.Merge(b)
	if !reflect.DeepEqual(a.contactSets(), seq.contactSets()) {
		t.Error("merged contact counters differ from sequential")
	}
	if len(a.Scanners(100)) != len(seq.Scanners(100)) {
		t.Error("scanner sets differ after merge")
	}
}

func netipMust(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestBackendIndexHelpers(t *testing.T) {
	idx := NewBackendIndex()
	a4 := netipMust("10.0.0.1")
	a6 := netipMust("2001:db8::1")
	idx.Add(a4, "T1", geo.Europe, "eu-central-1", true)
	idx.Add(a6, "T1", geo.Europe, "eu-central-1", false)
	if idx.Size() != 2 || idx.info[a4].alias != "T1" {
		t.Fatal("index basics broken")
	}
	totals := aliasTotals(idx, "T1")
	if totals[0] != 1 || totals[1] != 1 {
		t.Fatalf("totals = %v", totals)
	}
	idx.ensureBuilt()
	if al := idx.aliasNames; len(al) != 1 || al[0] != "T1" {
		t.Fatalf("aliases = %v", al)
	}
}

// certVisible is the ground-truth index's cert flag: whether a certless
// IPv4-wide scan can pull a default certificate from a server of class c.
func certVisible(c *world.ServerClass) bool {
	return slices.ContainsFunc(c.Endpoints, func(ep world.EndpointSpec) bool {
		return ep.Protocol.TLSCapable() && ep.Policy == iotserver.PolicyDefaultCert
	})
}
