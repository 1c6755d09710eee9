package disrupt

import (
	"net/netip"
	"slices"
	"testing"

	"iotmap/internal/asdb"
	"iotmap/internal/bgpstream"
	"iotmap/internal/blocklist"
	"iotmap/internal/core/flows"
	"iotmap/internal/iotserver"
	"iotmap/internal/isp"
	"iotmap/internal/outage"
	"iotmap/internal/world"
)

var (
	cachedWorld  *world.World
	cachedReport *OutageReport
)

// runOutageStudy simulates the December week with the AWS outage
// injected and analyzes the T1 focus series.
func runOutageStudy(t *testing.T) (*world.World, OutageReport) {
	t.Helper()
	if cachedReport != nil {
		return cachedWorld, *cachedReport
	}
	w, err := world.Build(world.Config{Seed: 51, Scale: 0.05, Days: world.OutageDays()})
	if err != nil {
		t.Fatal(err)
	}
	net, err := isp.NewNetwork(isp.Config{Seed: 51, Lines: 6000}, w)
	if err != nil {
		t.Fatal(err)
	}
	sc := outage.AWSUSEast1(4) // Dec 7 within Dec 3-10
	net.Modifier = sc.Modifier()

	idx := flows.NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, certVisible(s.Class))
	}
	rep, err := AnalyzeOutage(simulateStudy(net, idx, w, flows.Options{
		ScannerThreshold: 100,
		SamplingRate:     net.Cfg.SamplingRate,
		FocusAlias:       "T1",
		FocusRegion:      "us-east-1",
	}), sc, w.Days)
	if err != nil {
		t.Fatal(err)
	}
	cachedWorld = w
	cachedReport = &rep
	return w, rep
}

// simulateStudy folds net's week through a one-shard pipeline.
func simulateStudy(net *isp.Network, idx *flows.BackendIndex, w *world.World, opts flows.Options) *flows.Study {
	agg := flows.NewShardedAggregator(idx, w.Days, opts, 1)
	agg.Simulate(net)
	_, col := agg.Merge()
	return col.Study()
}

// Figure 15's shape: the affected region's downstream falls well below
// the pre-outage minimum; the EU region only dips slightly; EU carries a
// multiple of the us-east volume.
func TestOutageTrafficShape(t *testing.T) {
	_, rep := runOutageStudy(t)
	if rep.RegionDropPct <= 14.5 {
		t.Errorf("region drop = %.1f%%, want > 14.5%%", rep.RegionDropPct)
	}
	if rep.EUDipPct <= 0 || rep.EUDipPct > 25 {
		t.Errorf("EU dip = %.1f%%, want a slight dip", rep.EUDipPct)
	}
	if rep.EUDipPct >= rep.RegionDropPct {
		t.Error("EU dipped as hard as the failed region")
	}
	if rep.EUOverRegionFactor < 1.5 {
		t.Errorf("EU/us-east factor = %.2f, want EU to out-carry the region", rep.EUOverRegionFactor)
	}
}

// Figure 16's shape: line counts barely move — devices keep retrying.
func TestOutageLinesShape(t *testing.T) {
	_, rep := runOutageStudy(t)
	if rep.RegionLinesDipPct <= 0 {
		t.Errorf("region line dip = %.1f%%, want a small positive dip", rep.RegionLinesDipPct)
	}
	if rep.RegionLinesDipPct >= rep.RegionDropPct {
		t.Error("line counts fell as hard as traffic — retries missing")
	}
	if rep.EULinesDipPct > 10 {
		t.Errorf("EU line dip = %.1f%%, want ≈0", rep.EULinesDipPct)
	}
}

func TestAnalyzeOutageNeedsFocus(t *testing.T) {
	idx := flows.NewBackendIndex()
	col := flows.NewCollector(idx, world.StudyDays(), flows.Options{})
	if _, err := AnalyzeOutage(col.Study(), outage.AWSUSEast1(4), world.StudyDays()); err == nil {
		t.Fatal("focusless study accepted")
	}
}

func TestSection62Report(t *testing.T) {
	w, _ := runOutageStudy(t)
	avoid := map[asdb.ASN]struct{}{}
	for _, as := range w.AS.ASes() {
		avoid[as.Number] = struct{}{}
	}
	cfg := bgpstream.PaperWeek(w.Days)
	cfg.AvoidASNs = avoid
	feed, err := bgpstream.Generate(cfg, 51)
	if err != nil {
		t.Fatal(err)
	}
	agg := blocklist.BuildFireHOL(w, 51)
	var addrs []netip.Addr
	for _, s := range w.AllServers() {
		addrs = append(addrs, s.Addr)
	}
	rep := Analyze(feed, agg, addrs, w.AS, func(a netip.Addr) string {
		if s, ok := w.ServerAt(a); ok {
			return s.Provider
		}
		return "?"
	})
	if rep.Leaks != 10 || rep.Hijacks != 40 || rep.ASOutages != 166 {
		t.Fatalf("event counts = %d/%d/%d", rep.Leaks, rep.Hijacks, rep.ASOutages)
	}
	if len(rep.Impacts) != 0 {
		t.Fatalf("impacts = %d, want none (paper week)", len(rep.Impacts))
	}
	if rep.BlocklistLists != 67 {
		t.Fatalf("lists = %d", rep.BlocklistLists)
	}
	if len(rep.Hits) == 0 {
		t.Fatal("no blocklist hits")
	}
	if len(rep.HitsPerProvider) == 0 || len(rep.HitReasons) == 0 {
		t.Fatal("hit tallies empty")
	}
	for id := range rep.HitsPerProvider {
		switch id {
		case "baidu", "microsoft", "sap", "google", "amazon", "alibaba":
		default:
			t.Fatalf("unexpected provider on blocklist: %s", id)
		}
	}
}

// The historical us-east-1 event must hit T1 without cascading into the
// cloud-hosted D-group (their lines map to EU regions), exactly the
// paper's "Impact on D1-D6" finding.
func TestCascadeHistoricalOutage(t *testing.T) {
	_, _ = runOutageStudy(t)
	study := cachedStudyForCascade(t)
	entries := AnalyzeCascade(study, outage.AWSUSEast1(4))
	byAlias := map[string]CascadeEntry{}
	for _, e := range entries {
		byAlias[e.Alias] = e
	}
	// T1's platform-wide drop exceeds the paper's "more than 14.5%"
	// (only its us-east slice craters; the EU estate keeps serving).
	if byAlias["T1"].WindowDropPct <= 14.5 {
		t.Errorf("T1 platform drop = %.1f%%, want > 14.5%%", byAlias["T1"].WindowDropPct)
	}
	// The cloud-hosted D-group must not fall harder than the provider
	// that actually lost a region, and must stay inside the noise band.
	for _, alias := range []string{"D1", "D3", "D5"} {
		e, ok := byAlias[alias]
		if !ok {
			continue
		}
		if e.Affected {
			t.Errorf("%s flagged as cascaded on a us-east-1 outage: %+v", alias, e)
		}
		if e.WindowDropPct >= byAlias["T1"].WindowDropPct+5 {
			t.Errorf("%s (%.1f%%) fell harder than T1 (%.1f%%)", alias, e.WindowDropPct, byAlias["T1"].WindowDropPct)
		}
	}
}

// A what-if outage on the EU AWS region must cascade into the AWS-hosted
// EU platforms (Bosch lives entirely in eu-central-1).
func TestCascadeWhatIfEUOutage(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 53, Scale: 0.05, Days: world.OutageDays()})
	if err != nil {
		t.Fatal(err)
	}
	net, err := isp.NewNetwork(isp.Config{Seed: 53, Lines: 6000}, w)
	if err != nil {
		t.Fatal(err)
	}
	sc := outage.AWSUSEast1(4)
	sc.Name = "what-if-eu-central-1"
	sc.Region = "eu-central-1"
	net.Modifier = sc.Modifier()

	idx := flows.NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, certVisible(s.Class))
	}
	entries := AnalyzeCascade(simulateStudy(net, idx, w, flows.Options{SamplingRate: net.Cfg.SamplingRate}), sc)
	affected := map[string]bool{}
	for _, e := range entries {
		affected[e.Alias] = e.Affected
	}
	if !affected["D1"] {
		t.Error("Bosch (D1, AWS eu-central-1 only) should cascade on an EU outage")
	}
}

// cachedStudyForCascade rebuilds the cached outage study's flow Study.
func cachedStudyForCascade(t *testing.T) *flows.Study {
	t.Helper()
	w := cachedWorld
	net, err := isp.NewNetwork(isp.Config{Seed: 51, Lines: 6000}, w)
	if err != nil {
		t.Fatal(err)
	}
	sc := outage.AWSUSEast1(4)
	net.Modifier = sc.Modifier()
	idx := flows.NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, certVisible(s.Class))
	}
	return simulateStudy(net, idx, w, flows.Options{SamplingRate: net.Cfg.SamplingRate})
}

// certVisible is the ground-truth index's cert flag: whether a certless
// IPv4-wide scan can pull a default certificate from a server of class c.
func certVisible(c *world.ServerClass) bool {
	return slices.ContainsFunc(c.Endpoints, func(ep world.EndpointSpec) bool {
		return ep.Protocol.TLSCapable() && ep.Policy == iotserver.PolicyDefaultCert
	})
}
