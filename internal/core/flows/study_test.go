package flows

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"iotmap/internal/geo"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
	"iotmap/internal/proto"
	"iotmap/internal/world"
)

// TestStudyAccessorsMatchReference: every accessor of the column view
// equals the historical map-scanning implementation run over
// refCollector's maps, for every alias (one without traffic and one the
// index has never heard of included) and every port (TCP and UDP under
// one number, and a port never seen). The collector is merged from three
// shards fed in different orders, so its line and port IDs are in no
// order the reference shares.
func TestStudyAccessorsMatchReference(t *testing.T) {
	f := buildDenseFixture(23)
	// An indexed alias no record reaches.
	quiet := netip.MustParseAddr("203.0.113.77")
	f.idx.Add(quiet, "Z9", geo.Oceania, "ap-southeast-2", true)
	f.infos[quiet] = refInfo{alias: "Z9", cont: geo.Oceania, region: "ap-southeast-2", certFound: true}

	ref := newRefCollector(f.infos, f.days, f.opts)
	for _, r := range f.recs {
		ref.ingest(r)
	}
	const shards = 3
	feeds := make([][]netflow.Record, shards)
	for i, r := range f.recs {
		feeds[i%shards] = append(feeds[i%shards], r)
	}
	// Shard 0 forward, shard 1 reversed, shard 2 shuffled.
	for i, j := 0, len(feeds[1])-1; i < j; i, j = i+1, j-1 {
		feeds[1][i], feeds[1][j] = feeds[1][j], feeds[1][i]
	}
	rand.New(rand.NewSource(3)).Shuffle(len(feeds[2]), func(i, j int) {
		feeds[2][i], feeds[2][j] = feeds[2][j], feeds[2][i]
	})
	parts := make([]*Collector, shards)
	for i, feed := range feeds {
		parts[i] = NewCollector(f.idx, f.days, f.opts)
		for _, r := range feed {
			ingestRecord(parts[i], r, nil)
		}
	}
	merged := parts[2]
	merged.Merge(parts[0])
	merged.Merge(parts[1])
	got, want := merged.Study(), ref.study(f.idx)

	eq := func(what string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got  %v\n want %v", what, g, w)
		}
	}
	pair := func(a, b any) [2]any { return [2]any{a, b} }

	eq("Aliases", got.Aliases(), want.Aliases())
	eq("Hours", got.Hours(), want.hours)
	aliases := append(append([]string(nil), f.idx.aliasNames...), "nope")
	if len(got.Aliases()) != len(aliases)-2 {
		t.Fatalf("fixture must leave exactly Z9 and the unknown alias without traffic, got %v of %v", got.Aliases(), aliases)
	}
	for _, alias := range aliases {
		eq(alias+" Visibility", pair(got.Visibility(alias)), pair(want.Visibility(alias)))
		eq(alias+" LineCount", pair(got.LineCount(alias)), pair(want.LineCount(alias)))
		eq(alias+" CertOnlyDecrease", pair(got.CertOnlyDecrease(alias)), pair(want.CertOnlyDecrease(alias)))
		eq(alias+" ActiveLines", got.ActiveLines(alias), hourSeries(alias, want.activeLines[alias], want.hours))
		eq(alias+" Downstream", got.Downstream(alias), hourSeries(alias, want.downHour[alias], want.hours))
		eq(alias+" Upstream", got.Upstream(alias), hourSeries(alias, want.upHour[alias], want.hours))
		eq(alias+" OverallRatio", got.OverallRatio(alias), want.OverallRatio(alias))
		eq(alias+" PortShares", got.PortShares(alias), want.PortShares(alias))
		eq(alias+" AliasDailyECDF", got.AliasDailyECDF(alias), want.AliasDailyECDF(alias))
	}

	all := want.TopPorts(1 << 20)
	for _, n := range []int{0, 1, 7, 14, len(all), len(all) + 5} {
		eq("TopPorts", got.TopPorts(n), want.TopPorts(n))
	}
	twin := false
	for _, p := range all {
		if p.Transport == proto.TCP {
			for _, q := range all {
				twin = twin || q == (proto.PortKey{Transport: proto.UDP, Port: p.Port})
			}
		}
	}
	if !twin {
		t.Fatal("fixture must carry a port number under both transports")
	}
	for _, p := range append(all, proto.PortKey{Transport: proto.TCP, Port: 1}, proto.PortKey{Transport: proto.UDP, Port: 1}) {
		eq(p.String()+" PortDailyECDF", got.PortDailyECDF(p), want.PortDailyECDF(p))
	}

	gd, gu := got.DailyECDFs()
	wd, wu := want.DailyECDFs()
	eq("DailyECDFs down", gd, wd)
	eq("DailyECDFs up", gu, wu)
	eq("BackendVolumes", got.BackendVolumes(), want.backendVol)
	eq("LineContinentShares", got.LineContinentShares(), want.LineContinentShares())
	eq("ServerContinentShares", got.ServerContinentShares(), want.ServerContinentShares())
	eq("TrafficContinentShares", got.TrafficContinentShares(), want.TrafficContinentShares())
	eq("FocusDown", []any{got.FocusDownAll, got.FocusDownRegion, got.FocusDownEU},
		[]any{want.FocusDownAll, want.FocusDownRegion, want.FocusDownEU})
	eq("FocusLines", []any{got.FocusLinesAll, got.FocusLinesRegion, got.FocusLinesEU},
		[]any{want.FocusLinesAll, want.FocusLinesRegion, want.FocusLinesEU})
}

// syntheticCollector folds a few records per line for `lines` plan
// lines over the dense fixture's index: cheap to build at any size.
func syntheticCollector(f denseFixture, lines int) *Collector {
	rng := rand.New(rand.NewSource(int64(lines)))
	col := NewCollector(f.idx, f.days, f.opts)
	for i := 0; i < lines; i++ {
		for k := 0; k < 4; k++ {
			ingestRecord(col, netflow.Record{
				Src: f.idx.addrs[rng.Intn(len(f.idx.addrs))], Dst: isp.LineV4Addr(0, i),
				SrcPort: uint16(440 + rng.Intn(5)), DstPort: 40000, Bytes: uint64(1 + rng.Intn(1<<16)),
				Start: f.days[0].Add(time.Duration(rng.Intn(len(f.days)*24)) * time.Hour),
			}, nil)
		}
	}
	return col
}

// TestStudyAllocsBounded: Study() allocates the view, the active-line
// series of each alias and the focus series — nothing per line, per
// (line, alias) or per (line, port) slot.
func TestStudyAllocsBounded(t *testing.T) {
	f := buildDenseFixture(29)
	f.idx.Build()
	allocs := func(lines int) float64 {
		col := syntheticCollector(f, lines)
		if got := len(col.lines.addrs); got != lines {
			t.Fatalf("synthetic collector holds %d lines, want %d", got, lines)
		}
		return testing.AllocsPerRun(10, func() { col.Study() })
	}
	small, large := allocs(2000), allocs(4000)
	if limit := float64(4 * (len(f.idx.aliasNames) + 4)); small > limit {
		t.Errorf("Study() of 2000 lines makes %.0f allocations, want at most %.0f (a small constant per alias)", small, limit)
	}
	if large > small {
		t.Errorf("Study() allocations grow with the line count: %.0f at 2000 lines, %.0f at 4000", small, large)
	}
}

// readStudy calls every accessor the way internal/figures does for
// Figures 6-14 (Figure 5 reads the ContactCounter): per-alias accessors
// once per alias with traffic, per-port ECDFs once per top port. It
// returns a checksum so the calls cannot be optimized away.
func readStudy(s *Study) float64 {
	sum := float64(s.Hours())
	aliases := s.Aliases()
	for _, alias := range aliases {
		v4, v6 := s.Visibility(alias)
		c4, c6 := s.CertOnlyDecrease(alias)
		l4, l6 := s.LineCount(alias)
		sum += v4 + v6 + c4 + c6 + float64(l4+l6)
		sum += s.ActiveLines(alias).Max() + s.Downstream(alias).Total() + s.Upstream(alias).Total()
		sum += s.OverallRatio(alias)
		sum += float64(len(s.PortShares(alias)))
		sum += float64(s.AliasDailyECDF(alias).Len())
	}
	sum += float64(len(s.TopPorts(14)))
	for _, p := range s.TopPorts(7) {
		sum += float64(s.PortDailyECDF(p).Len())
	}
	down, up := s.DailyECDFs()
	sum += float64(down.Len() + up.Len())
	sum += float64(len(s.LineContinentShares()) + len(s.ServerContinentShares()) + len(s.TrafficContinentShares()))
	sum += float64(len(s.BackendVolumes()))
	if s.FocusDownAll != nil {
		sum += s.FocusDownAll.Total() + s.FocusDownRegion.Total() + s.FocusDownEU.Total()
		sum += s.FocusLinesAll.Max() + s.FocusLinesRegion.Max() + s.FocusLinesEU.Max()
	}
	return sum
}

// TestWindowStudyConcurrentReaders: every Window.Study() call hands out
// a *Study over the fold the window lends, which must stay valid and
// unchanged for whoever holds it while the window keeps ingesting and
// folding (into a copy of it). Under -race this is the check that the view keeps no
// unsynchronized lazy state; afterwards the window's study must still
// equal the batch study of the same feed.
func TestWindowStudyConcurrentReaders(t *testing.T) {
	f := buildDenseFixture(31)
	opts := f.opts
	opts.ScannerThreshold = 3
	windowHours := (len(f.days) + 1) * 24
	epoch := f.days[0]
	win, err := NewWindow(f.idx, epoch, windowHours, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The pre-epoch flush stays out: the window refuses it whole, a batch
	// partial still counts its contacts.
	flushes := hourFlushes(f.recs, epoch)[1:]
	if flushHour(flushes[0], epoch) < 0 {
		t.Fatal("more than one pre-epoch flush")
	}
	flushRecords(win, flushes[0])

	stop := make(chan struct{})
	var readers, started sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		started.Add(1)
		go func() {
			defer readers.Done()
			for first := true; ; first = false {
				select {
				case <-stop:
					return
				default:
				}
				// A study handed out must not move while the window
				// keeps folding into its own caches.
				_, s := win.Study()
				if readStudy(s) != readStudy(s) {
					t.Error("two reads of one study disagree")
				}
				if first {
					started.Done()
				}
			}
		}()
	}
	started.Wait()
	for _, fl := range flushes[1:] {
		flushRecords(win, fl)
	}
	close(stop)
	readers.Wait()

	days := make([]time.Time, windowHours/24)
	for i := range days {
		days[i] = epoch.AddDate(0, 0, i)
	}
	ref := NewShardPartial(f.idx, days, opts)
	for _, fl := range flushes {
		flushRecords(ref, fl)
	}
	refCC, refCol := MergePartials([]*ShardPartial{ref})
	cc, st := win.Study()
	if !reflect.DeepEqual(named(st), named(refCol.Study())) {
		t.Error("window study differs from the batch study of the same feed")
	}
	if !reflect.DeepEqual(cc.contactSets(), refCC.contactSets()) {
		t.Error("window contact sets differ from the batch counter of the same feed")
	}
}

var studySink float64

// BenchmarkStudyWeek is the finalization layer in isolation: a
// week-sized collector built once outside the timer, then Study() alone
// (`finalize`) and Study() plus every accessor a figure render calls
// (`figures`). us/line is per line with IoT traffic.
func BenchmarkStudyWeek(b *testing.B) {
	w, err := world.Build(world.Config{Seed: 11, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	net, err := isp.NewNetwork(isp.Config{Seed: 11, Lines: 20000}, w)
	if err != nil {
		b.Fatal(err)
	}
	idx := NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, certVisible(s.Class))
	}
	_, col := runPipeline(net, idx, w, 1)
	lines := len(col.lines.addrs)
	if lines == 0 {
		b.Fatal("simulated week reached no line")
	}
	run := func(name string, fn func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(lines), "us/line")
		})
	}
	run("finalize", func() { studySink += float64(col.Study().Hours()) })
	run("figures", func() { studySink += readStudy(col.Study()) })
}
