package isp

import (
	"net/netip"
	"runtime"
	"slices"
	"testing"

	"iotmap/internal/geo"
	"iotmap/internal/netflow"
	"iotmap/internal/simrand"
	"iotmap/internal/traffic"
	"iotmap/internal/world"
)

var (
	testWorldCache *world.World
	testNetCache   *Network
)

func testNetwork(t *testing.T) (*world.World, *Network) {
	t.Helper()
	if testNetCache != nil {
		return testWorldCache, testNetCache
	}
	w, err := world.Build(world.Config{Seed: 11, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(Config{Seed: 11, Lines: 4000}, w)
	if err != nil {
		t.Fatal(err)
	}
	testWorldCache, testNetCache = w, n
	return w, n
}

// IoTLines counts lines hosting at least one device.
func (n *Network) IoTLines() int {
	c := 0
	for i := range n.Lines {
		if len(n.Lines[i].Devices) > 0 {
			c++
		}
	}
	return c
}

func TestPopulationShape(t *testing.T) {
	_, n := testNetwork(t)
	if len(n.Lines) != 4000 {
		t.Fatalf("lines = %d", len(n.Lines))
	}
	iot := n.IoTLines()
	if iot < 500 || iot > 1200 {
		t.Fatalf("IoT lines = %d, want ≈20%% of 4000", iot)
	}
	v6 := 0
	scanners := 0
	for _, l := range n.Lines {
		if l.HasV6() {
			v6++
		}
		if l.ScanBreadth > 0 {
			scanners++
		}
	}
	if v6 < 900 || v6 > 1500 {
		t.Fatalf("v6 lines = %d, want ≈30%%", v6)
	}
	if scanners == 0 || scanners > 60 {
		t.Fatalf("scanners = %d", scanners)
	}
}

func TestDeterministicPopulation(t *testing.T) {
	w, _ := testNetwork(t)
	a, err := NewNetwork(Config{Seed: 5, Lines: 500}, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNetwork(Config{Seed: 5, Lines: 500}, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Lines {
		la, lb := &a.Lines[i], &b.Lines[i]
		if len(la.Devices) != len(lb.Devices) || la.ScanBreadth != lb.ScanBreadth {
			t.Fatalf("line %d differs", i)
		}
		for d := range la.Devices {
			if la.Devices[d].Provider() != lb.Devices[d].Provider() {
				t.Fatalf("line %d device %d differs", i, d)
			}
		}
	}
}

func TestDeviceProvidersFollowShares(t *testing.T) {
	_, n := testNetwork(t)
	counts := map[string]int{}
	total := 0
	for _, l := range n.Lines {
		for _, d := range l.Devices {
			counts[d.Provider()]++
			total++
		}
	}
	if counts["baidu"] != 0 || counts["huawei"] != 0 {
		t.Fatal("China-only providers must not appear on EU lines")
	}
	if counts["amazon"] < counts["microsoft"] {
		t.Fatalf("amazon (%d) should dominate microsoft (%d)", counts["amazon"], counts["microsoft"])
	}
	if counts["amazon"] < total/2 {
		t.Logf("amazon share = %d/%d", counts["amazon"], total)
	}
}

// TestNewNetworkLineLimit: line IDs at or above 2^24 would wrap the
// byte-derived V4/V6 addresses into collisions; NewNetwork must refuse.
func TestNewNetworkLineLimit(t *testing.T) {
	w, _ := testNetwork(t)
	if _, err := NewNetwork(Config{Seed: 1, Lines: maxLines + 1}, w); err == nil {
		t.Fatal("NewNetwork accepted a population wider than the address derivation")
	}
	if _, err := NewNetwork(Config{Seed: 1, Lines: 500}, w); err != nil {
		t.Fatalf("in-range population rejected: %v", err)
	}
}

// TestSimulateLinesMatchesSequential: concatenating the shard streams in
// shard order must reproduce the sequential line-major stream exactly,
// and every line must complete exactly once.
func TestSimulateLinesMatchesSequential(t *testing.T) {
	_, n := testNetwork(t)
	seq := recordFeed(n)

	const workers = 3
	shardRecs := make([][]netflow.Record, workers)
	shardLines := make([][]int, workers)
	n.SimulateLines(workers,
		func(shard int) func(netflow.Record) {
			return func(r netflow.Record) { shardRecs[shard] = append(shardRecs[shard], r) }
		},
		func(shard int, line *Line) { shardLines[shard] = append(shardLines[shard], line.ID) },
	)
	var got []netflow.Record
	seen := map[int]bool{}
	prev := -1
	for w := 0; w < workers; w++ {
		got = append(got, shardRecs[w]...)
		for _, id := range shardLines[w] {
			if seen[id] {
				t.Fatalf("line %d completed twice", id)
			}
			seen[id] = true
			if id <= prev {
				t.Fatalf("line completion out of order: %d after %d", id, prev)
			}
			prev = id
		}
	}
	if len(seen) != len(n.Lines) {
		t.Fatalf("completed %d lines, want %d", len(seen), len(n.Lines))
	}
	if len(got) != len(seq) {
		t.Fatalf("sharded records = %d, sequential = %d", len(got), len(seq))
	}
	for i := range got {
		if got[i] != seq[i] {
			t.Fatalf("record %d differs between sharded and sequential runs", i)
		}
	}
}

// recordFeed is the one-worker SimulateLines feed: every line's records
// in line order.
func recordFeed(n *Network) []netflow.Record {
	var out []netflow.Record
	n.SimulateLines(1, func(int) func(netflow.Record) {
		return func(r netflow.Record) { out = append(out, r) }
	}, func(int, *Line) {})
	return out
}

// TestSimulateIdempotent: homing state resets per line, so back-to-back
// simulations on one Network emit identical streams (the paper's
// analyses all read one recorded feed).
func TestSimulateIdempotent(t *testing.T) {
	_, n := testNetwork(t)
	a, b := recordFeed(n), recordFeed(n)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs between replays", i)
		}
	}
}

func TestSimulateDayEmitsBackendFlows(t *testing.T) {
	w, n := testNetwork(t)
	var recs []netflow.Record
	n.SimulateDay(0, func(r netflow.Record) { recs = append(recs, r) })
	if len(recs) == 0 {
		t.Fatal("no flows")
	}
	down, up := 0, 0
	for _, r := range recs {
		_, srcIsLine := n.LineByAddr(r.Src)
		_, dstIsLine := n.LineByAddr(r.Dst)
		_, srcIsSrv := w.ServerAt(r.Src)
		_, dstIsSrv := w.ServerAt(r.Dst)
		switch {
		case srcIsLine && dstIsSrv:
			up++
		case srcIsSrv && dstIsLine:
			down++
		default:
			t.Fatalf("flow between unknown endpoints: %v -> %v", r.Src, r.Dst)
		}
		if r.Bytes == 0 || r.Packets == 0 {
			t.Fatalf("empty sampled flow: %+v", r)
		}
	}
	if down == 0 || up == 0 {
		t.Fatalf("directions: down=%d up=%d", down, up)
	}
}

func TestScannersTouchManyServers(t *testing.T) {
	w, n := testNetwork(t)
	contacted := map[int]map[string]bool{} // lineID -> set of servers
	for d := range w.Days {
		n.SimulateDay(d, func(r netflow.Record) {
			if l, ok := n.LineByAddr(r.Src); ok && l.ScanBreadth > 0 {
				if _, isSrv := w.ServerAt(r.Dst); isSrv {
					if contacted[l.ID] == nil {
						contacted[l.ID] = map[string]bool{}
					}
					contacted[l.ID][r.Dst.String()] = true
				}
			}
		})
	}
	// At least one scanner must show breadth an IoT line cannot reach.
	maxBreadth := 0
	for _, set := range contacted {
		if len(set) > maxBreadth {
			maxBreadth = len(set)
		}
	}
	if maxBreadth < 10 {
		t.Fatalf("max scanner breadth = %d", maxBreadth)
	}
}

func TestModifierSuppressesFlows(t *testing.T) {
	_, n := testNetwork(t)
	base := 0
	n.SimulateDay(0, func(netflow.Record) { base++ })
	n.Modifier = func(_ *simrand.Source, day, hour int, srv *world.Server, down, up uint64) (uint64, uint64, bool) {
		return down, up, false // drop everything
	}
	defer func() { n.Modifier = nil }()
	after := 0
	n.SimulateDay(0, func(r netflow.Record) {
		if l, ok := n.LineByAddr(r.Src); ok && l.ScanBreadth > 0 {
			return // scanners bypass the modifier
		}
		after++
	})
	if base == 0 || after != 0 {
		t.Fatalf("modifier leak: base=%d after=%d", base, after)
	}
}

func TestEligibleServersSpread(t *testing.T) {
	w, _ := testNetwork(t)
	profs := traffic.Profiles()
	eligible := func(id string, cont geo.Continent) []*world.Server {
		prof := profs[id]
		return eligibleServers(w.Providers[id], &prof, cont, 0, nil)
	}
	// Google spread=1: all EU servers eligible.
	if spread := profs["google"].ServerSpread; spread != 1.0 {
		t.Fatalf("google spread = %f", spread)
	}
	euAll := 0
	for _, s := range w.Providers["google"].ActiveServers(0) {
		if s.Region.Continent == geo.Europe {
			euAll++
		}
	}
	got := eligible("google", geo.Europe)
	if len(got) != euAll {
		t.Fatalf("google EU eligible = %d, want %d", len(got), euAll)
	}
	// SAP spread=0.1: strictly fewer than the continent pool.
	sapAll := 0
	for _, s := range w.Providers["sap"].ActiveServers(0) {
		if s.Region.Continent == geo.Europe {
			sapAll++
		}
	}
	sapGot := eligible("sap", geo.Europe)
	if sapAll > 10 && len(sapGot) >= sapAll {
		t.Fatalf("sap eligible %d not trimmed from %d", len(sapGot), sapAll)
	}
	// Continent without presence falls back to the whole fleet.
	fallback := eligible("bosch", geo.Asia)
	if len(fallback) == 0 {
		t.Fatal("no fallback homing for bosch in Asia")
	}
}

// scanCell is the reference the homing tables are checked against: the
// eligible servers and RegionBias weights of one (provider, continent,
// day), derived from scratch the way every re-home used to.
func scanCell(p *world.Provider, prof traffic.Profile, cont geo.Continent, day int) ([]*world.Server, []float64) {
	var inCont, anywhere []*world.Server
	for _, s := range p.Servers {
		if day < s.FirstDay || day > s.LastDay {
			continue
		}
		anywhere = append(anywhere, s)
		if s.Region.Continent == cont {
			inCont = append(inCont, s)
		}
	}
	if len(inCont) == 0 {
		inCont = anywhere
	}
	spread := prof.ServerSpread
	if spread <= 0 || spread > 1 {
		spread = 1
	}
	k := max(int(float64(len(inCont))*spread+0.999), 1)
	inCont = inCont[:min(k, len(inCont))]
	if len(prof.RegionBias) == 0 {
		return inCont, nil
	}
	weights := make([]float64, len(inCont))
	for i, s := range inCont {
		weights[i] = 1
		if w := prof.RegionBias[s.Region.Region]; w > 0 {
			weights[i] = w
		}
	}
	return inCont, weights
}

// TestHomingTablesMatchScan: every cell of every device class — the ones
// the population points at, plus a continent the provider has no
// presence on — equals an independent scan of the fleet for that day,
// in a world whose servers retire and appear mid-week.
func TestHomingTablesMatchScan(t *testing.T) {
	w, n := testNetwork(t)
	profs := traffic.Profiles()

	type pair struct {
		provider string
		cont     geo.Continent
	}
	classes := map[pair]*deviceClass{}
	for _, l := range n.Lines {
		for _, d := range l.Devices {
			key := pair{d.Provider(), d.Continent()}
			if d.class == nil {
				t.Fatalf("line %d: device %+v carries no class", l.ID, d)
			}
			if c, ok := classes[key]; ok && c != d.class {
				t.Fatalf("%v resolved twice", key)
			}
			classes[key] = d.class
		}
	}
	if len(classes) < 10 {
		t.Fatalf("population spans %d classes, want a real spread", len(classes))
	}
	// bosch lives in Europe only: an Asian bosch class must fall back to
	// the whole fleet.
	noPresence := pair{"bosch", geo.Asia}
	for _, s := range w.Providers["bosch"].Servers {
		if s.Region.Continent == geo.Asia {
			t.Fatal("bosch gained an Asian server; pick another no-presence pair")
		}
	}
	bosch := profs["bosch"]
	ordOf := map[*world.Server]uint32{}
	for i, s := range n.servers {
		ordOf[s] = uint32(i)
	}
	classes[noPresence] = newDeviceClass(w, ordOf, &bosch, geo.Asia)

	retiring, appearing, biased := false, false, false
	for key, c := range classes {
		p := w.Providers[key.provider]
		for _, s := range p.Servers {
			retiring = retiring || s.LastDay < len(w.Days)-1
			appearing = appearing || s.FirstDay > 0
		}
		if len(c.days) != len(w.Days) {
			t.Fatalf("%v: %d cells for %d study days", key, len(c.days), len(w.Days))
		}
		for day, cell := range c.days {
			servers, weights := scanCell(p, profs[key.provider], key.cont, day)
			if len(servers) == 0 {
				t.Fatalf("%v day %d: reference scan found nothing", key, day)
			}
			got := make([]*world.Server, len(cell.servers))
			for i, ord := range cell.servers {
				got[i] = n.servers[ord]
			}
			if !slices.Equal(got, servers) {
				t.Fatalf("%v day %d: table holds %d servers, scan %d (or another order)", key, day, len(cell.servers), len(servers))
			}
			if !slices.Equal(cell.weights, weights) || (cell.weights == nil) != (weights == nil) {
				t.Fatalf("%v day %d: weights %v, scan %v", key, day, cell.weights, weights)
			}
			biased = biased || weights != nil
		}
	}
	if !retiring || !appearing {
		t.Fatalf("world has no mid-week churn (retiring=%v appearing=%v): the tables' day axis is untested", retiring, appearing)
	}
	if !biased {
		t.Fatal("no class carried RegionBias weights")
	}
	if got, all := len(classes[noPresence].days[0].servers), len(w.Providers["bosch"].ActiveServers(0)); got == 0 || got > all {
		t.Fatalf("bosch/Asia fallback homes to %d of %d servers", got, all)
	}
}

// TestLineByAddrRejections: LineByAddr answers from the address plan, so
// it must refuse what the old per-Network map simply never held —
// another vantage's block, a line index past the population, and the v6
// slot of a v4-only line — and still resolve every address it built.
func TestLineByAddrRejections(t *testing.T) {
	_, n := testNetwork(t)
	var v4Only *Line
	for i := range n.Lines {
		l := &n.Lines[i]
		if got, ok := n.LineByAddr(l.V4()); !ok || got != l {
			t.Fatalf("line %d: v4 %v resolved to %v, %v", l.ID, l.V4(), got, ok)
		}
		if l.HasV6() {
			if got, ok := n.LineByAddr(l.V6()); !ok || got != l {
				t.Fatalf("line %d: v6 %v resolved to %v, %v", l.ID, l.V6(), got, ok)
			}
		} else if v4Only == nil {
			v4Only = l
		}
	}
	if v4Only == nil {
		t.Fatal("no v4-only line in the population")
	}
	for name, a := range map[string]netip.Addr{
		"another vantage's v4 block": LineV4Addr(n.Cfg.VantageID+1, 0),
		"another vantage's v6 block": LineV6Addr(n.Cfg.VantageID+1, 0),
		"line index past the end":    LineV4Addr(n.Cfg.VantageID, len(n.Lines)),
		"v6 index past the end":      LineV6Addr(n.Cfg.VantageID, len(n.Lines)),
		"v6 slot of a v4-only line":  LineV6Addr(n.Cfg.VantageID, v4Only.ID),
		"backend address":            n.addrs[n.scanTargets[0]],
	} {
		if l, ok := n.LineByAddr(a); ok {
			t.Errorf("%s: %v resolved to line %d", name, a, l.ID)
		}
	}
}

// BenchmarkSimulateWeek is the simulator layer alone: EmitLines at one
// worker on a pre-built Network, into a lineDone that only counts rows.
// The records sub-benchmark times the record adapter (SimulateLines into
// a counting sink) over the same week, so the cost of building
// netflow.Records stays visible.
func BenchmarkSimulateWeek(b *testing.B) {
	w, err := world.Build(world.Config{Seed: 11, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	n, err := NewNetwork(Config{Seed: 11, Lines: 20000}, w)
	if err != nil {
		b.Fatal(err)
	}
	report := func(b *testing.B, rows int) {
		if rows == 0 {
			b.Fatal("simulated week emitted nothing")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/record")
		b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "records/s")
	}
	b.Run("rows", func(b *testing.B) {
		rows := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n.EmitLines(1, func(_ int, _ *Line, r *netflow.RecordBatch) { rows += r.Len() })
		}
		report(b, rows)
	})
	b.Run("records", func(b *testing.B) {
		records := 0
		sinkFor := func(int) func(netflow.Record) { return func(netflow.Record) { records++ } }
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n.SimulateLines(1, sinkFor, func(int, *Line) {})
		}
		report(b, records)
	})
}

// BenchmarkNewNetwork is the population layer alone: NewNetwork at
// 20 000 lines on a pre-built world. Besides B/op and allocs/op it
// reports bytes/line, the heap the last network keeps live after a
// collection (lines, devices and device classes), per line.
func BenchmarkNewNetwork(b *testing.B) {
	w, err := world.Build(world.Config{Seed: 11, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	const lines = 20000
	var n *Network
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err = NewNetwork(Config{Seed: 11, Lines: lines}, w); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	with := heap()
	runtime.KeepAlive(n)
	n = nil
	b.ReportMetric(float64(with-heap())/lines, "bytes/line")
}

func TestV6DevicesNeedV6Lines(t *testing.T) {
	w, n := testNetwork(t)
	for d := range w.Days {
		n.SimulateDay(d, func(r netflow.Record) {
			srcSrv, _ := w.ServerAt(r.Src)
			dstSrv, _ := w.ServerAt(r.Dst)
			if srcSrv != nil && srcSrv.IsV6() {
				if l, ok := n.LineByAddr(r.Dst); !ok || !l.HasV6() {
					t.Fatalf("v6 server talks to v4-only line: %v -> %v", r.Src, r.Dst)
				}
			}
			if dstSrv != nil && dstSrv.IsV6() {
				if l, ok := n.LineByAddr(r.Src); !ok || !l.HasV6() {
					t.Fatalf("v4-only line talks to v6 server")
				}
			}
		})
	}
}

// TestVantageAddressPlans: federated vantages must never alias
// subscriber addresses — vantage v's lines live in their own v4 /8 and
// v6 prefix — while vantage 0 keeps the classic single-ISP plan, and
// out-of-range IDs fail fast.
func TestVantageAddressPlans(t *testing.T) {
	w, base := testNetwork(t)
	v1, err := NewNetwork(Config{Seed: 11, Lines: 4000, VantageID: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range base.Lines {
		if l.V4().As4()[0] != 95 {
			t.Fatalf("vantage 0 line %d v4 = %v, want 95/8", i, l.V4())
		}
		o := &v1.Lines[i]
		if o.V4().As4()[0] != 96 {
			t.Fatalf("vantage 1 line %d v4 = %v, want 96/8", i, o.V4())
		}
		if l.V4() == o.V4() {
			t.Fatalf("line %d aliases across vantages: %v", i, l.V4())
		}
		if l.HasV6() && o.HasV6() && l.V6() == o.V6() {
			t.Fatalf("line %d v6 aliases across vantages: %v", i, l.V6())
		}
	}
	// Same seed => same structure, different addresses only.
	if base.IoTLines() != v1.IoTLines() {
		t.Fatalf("same-seed vantages differ structurally: %d vs %d IoT lines", base.IoTLines(), v1.IoTLines())
	}
	for _, id := range []int{-1, maxVantageID + 1} {
		if _, err := NewNetwork(Config{Seed: 11, Lines: 10, VantageID: id}, w); err == nil {
			t.Fatalf("vantage ID %d accepted", id)
		}
	}
}

// TestContinentBias: a NA-heavy bias must shift device homing toward
// North America, and a nil bias must leave the population exactly as
// the unbiased model built it (the golden-pinning property).
func TestContinentBias(t *testing.T) {
	w, base := testNetwork(t)
	biased, err := NewNetwork(Config{Seed: 11, Lines: 4000, ContinentBias: map[geo.Continent]float64{
		geo.NorthAmerica: 8, geo.Europe: 0.1,
	}}, w)
	if err != nil {
		t.Fatal(err)
	}
	count := func(n *Network, c geo.Continent) int {
		total := 0
		for _, l := range n.Lines {
			for _, d := range l.Devices {
				if d.Continent() == c {
					total++
				}
			}
		}
		return total
	}
	if bNA, oNA := count(biased, geo.NorthAmerica), count(base, geo.NorthAmerica); bNA <= oNA {
		t.Errorf("NA bias did not raise NA homing: %d vs %d", bNA, oNA)
	}
	if bEU, oEU := count(biased, geo.Europe), count(base, geo.Europe); bEU >= oEU {
		t.Errorf("EU down-bias did not lower EU homing: %d vs %d", bEU, oEU)
	}
	// nil bias reproduces the unbiased population device for device.
	plain, err := NewNetwork(Config{Seed: 11, Lines: 4000}, w)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range base.Lines {
		p := &plain.Lines[i]
		if len(l.Devices) != len(p.Devices) || l.ScanBreadth != p.ScanBreadth {
			t.Fatalf("line %d structure drifted", i)
		}
		for d := range l.Devices {
			if l.Devices[d].Provider() != p.Devices[d].Provider() || l.Devices[d].Continent() != p.Devices[d].Continent() {
				t.Fatalf("line %d device %d drifted", i, d)
			}
		}
	}
}

// LineByAddr resolves a subscriber address to its line. The address
// plan is arithmetic (plan.go), so this is LineSlot plus the checks that
// the slot belongs to this Network: its vantage, a line it built, and —
// for a v6 slot — a line that holds a v6 prefix.
func (n *Network) LineByAddr(a netip.Addr) (*Line, bool) {
	vantage, slot, ok := LineSlot(a)
	if !ok || vantage != n.Cfg.VantageID || int(slot>>1) >= len(n.Lines) {
		return nil, false
	}
	l := &n.Lines[slot>>1]
	if slot&1 == 1 && !l.HasV6() {
		return nil, false
	}
	return l, true
}
