package iotmap_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"iotmap"
	"iotmap/internal/core/discovery"
	"iotmap/internal/core/flows"
	"iotmap/internal/figures"
	"iotmap/internal/geo"
)

// TestStageOrdering: stages must refuse to run out of order.
func TestStageOrdering(t *testing.T) {
	sys, err := iotmap.New(iotmap.Config{Seed: 3, Scale: 0.02, Lines: 500, SkipLiveScan: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.ValidateAndLocate(); err == nil {
		t.Fatal("ValidateAndLocate ran before Discover")
	}
	if err := sys.TrafficStudy(); err == nil {
		t.Fatal("TrafficStudy ran before ValidateAndLocate")
	}
	if err := sys.Disrupt(); err == nil {
		t.Fatal("Disrupt ran before TrafficStudy")
	}
	ctx := context.Background()
	if err := sys.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sys.ValidateAndLocate(); err != nil {
		t.Fatal(err)
	}
	if err := sys.TrafficStudy(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Disrupt(); err != nil {
		t.Fatal(err)
	}
	if sys.Disruptions == nil {
		t.Fatal("no disruption report")
	}
	if sys.OutageReport != nil {
		t.Fatal("outage report without an outage scenario")
	}
	if sys.Cascade != nil {
		t.Fatal("cascade entries without an outage scenario")
	}
}

// federationConfig is the three-vantage acceptance setup: two ISPs and
// an IXP-style feed over one discovered backend set.
func federationConfig(mode string) iotmap.Config {
	return iotmap.Config{
		Seed: 3, Scale: 0.02, Lines: 900, SkipLiveScan: true,
		TrafficMode: mode, WireStreams: 3,
		Vantages: []iotmap.VantageSpec{
			{Name: "isp-a"},
			{Name: "isp-b", Lines: 600, ContinentMix: map[geo.Continent]float64{
				geo.NorthAmerica: 4, geo.Europe: 0.25,
			}},
			{Name: "ixp", Lines: 700, SamplingRate: 1024, ScannerFraction: -1},
		},
	}
}

func runFederation(t *testing.T, mode string) *iotmap.System {
	t.Helper()
	sys, err := iotmap.New(federationConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if err := sys.FederationStudy(); err == nil {
		t.Fatal("FederationStudy ran before ValidateAndLocate")
	}
	if err := sys.Discover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.ValidateAndLocate(); err != nil {
		t.Fatal(err)
	}
	if err := sys.FederationStudy(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFederationStudyMultiVantage: a three-vantage run produces a
// coverage report whose union dominates every single vantage, an exact
// union study, and — run once per TrafficMode — identical analyses
// whether each vantage's feed stayed in memory or crossed the wire.
func TestFederationStudyMultiVantage(t *testing.T) {
	mem := runFederation(t, iotmap.TrafficModeMemory)
	fed := mem.Federation
	if len(fed.Vantages) != 3 {
		t.Fatalf("vantages = %d", len(fed.Vantages))
	}
	seeds := map[int64]bool{}
	for _, vr := range fed.Vantages {
		seeds[vr.Spec.Seed] = true
		if vr.Study == nil || vr.Contacts == nil {
			t.Fatalf("vantage %s missing outputs", vr.Spec.Name)
		}
	}
	if len(seeds) != 3 {
		t.Fatalf("vantage seeds not distinct: %v", seeds)
	}
	cov := fed.Coverage
	maxB := 0
	for _, vc := range cov.Vantages {
		if vc.Backends > maxB {
			maxB = vc.Backends
		}
	}
	if cov.Union < maxB || maxB == 0 {
		t.Fatalf("|A∪B∪C| = %d vs best vantage %d", cov.Union, maxB)
	}
	var sum float64
	for _, vr := range fed.Vantages {
		sum += vr.Study.Downstream("T1").Total()
	}
	if got := fed.Union.Downstream("T1").Total(); got != sum {
		t.Fatalf("union T1 downstream %v != per-vantage sum %v (must be exact)", got, sum)
	}

	// The same federation over the wire: every per-vantage study and the
	// coverage report must match the in-memory run byte for byte.
	wire := runFederation(t, iotmap.TrafficModeWire)
	for i, vr := range fed.Vantages {
		wvr := wire.Federation.Vantages[i]
		if wvr.WireIngest == nil || len(wvr.WireStreams) == 0 {
			t.Fatalf("vantage %s: wire run kept no ingest stats", wvr.Spec.Name)
		}
		for _, ss := range wvr.WireStreams {
			if ss.Vantage != wvr.Spec.Name {
				t.Fatalf("stream %d attributed to %q, want %q", ss.Stream, ss.Vantage, wvr.Spec.Name)
			}
		}
		msys, wsys := *mem, *wire
		msys.Study, msys.Contacts = vr.Study, vr.Contacts
		wsys.Study, wsys.Contacts = wvr.Study, wvr.Contacts
		for _, render := range []func(*iotmap.System) string{
			figures.Figure5, figures.Figure6, figures.Figure9, figures.Figure11,
		} {
			if render(&msys) != render(&wsys) {
				t.Fatalf("vantage %s: wire figures differ from memory", vr.Spec.Name)
			}
		}
	}
	if figures.FederationCoverage(mem.Federation) != figures.FederationCoverage(wire.Federation) {
		t.Fatal("coverage report differs between memory and wire federation")
	}
}

// TestFederationStudyParallelMatchesSequential: FederationStudy drives
// its vantage worlds on the GOMAXPROCS worker pool; under -race this
// pins both that the concurrent drive is race-free and that it
// reproduces the one-worker drive (GOMAXPROCS=1) vantage-for-vantage —
// same figures, same scanner curves, same coverage report, same union.
func TestFederationStudyParallelMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := runtime.GOMAXPROCS(0)
	build := func(workers int) *iotmap.System {
		runtime.GOMAXPROCS(workers)
		cfg := federationConfig(iotmap.TrafficModeMemory)
		sys, err := iotmap.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		if err := sys.Discover(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := sys.ValidateAndLocate(); err != nil {
			t.Fatal(err)
		}
		if err := sys.FederationStudy(); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	seq := build(1)
	par := build(max(procs, 2)) // the default, and never a single worker

	if len(seq.Federation.Vantages) != len(par.Federation.Vantages) {
		t.Fatalf("vantage counts differ: %d vs %d", len(seq.Federation.Vantages), len(par.Federation.Vantages))
	}
	curve := func(cc *flows.ContactCounter) string {
		out := ""
		for _, pt := range cc.Curve([]int{10, 50, 100, 500}) {
			out += fmt.Sprintf("%d %d %.6f\n", pt.Threshold, pt.Scanners, pt.CoveragePct)
		}
		return out
	}
	renders := []func(*iotmap.System) string{
		figures.Figure5, figures.Figure6, figures.Figure9, figures.Figure11, figures.Figure12,
	}
	for i, svr := range seq.Federation.Vantages {
		pvr := par.Federation.Vantages[i]
		if svr.Spec.Name != pvr.Spec.Name {
			t.Fatalf("vantage %d: name %q vs %q", i, svr.Spec.Name, pvr.Spec.Name)
		}
		ssys, psys := *seq, *par
		ssys.Study, ssys.Contacts = svr.Study, svr.Contacts
		psys.Study, psys.Contacts = pvr.Study, pvr.Contacts
		for _, render := range renders {
			if render(&ssys) != render(&psys) {
				t.Fatalf("vantage %s: concurrent drive changed a figure", svr.Spec.Name)
			}
		}
		if curve(svr.Contacts) != curve(pvr.Contacts) {
			t.Fatalf("vantage %s: concurrent drive changed the scanner curve", svr.Spec.Name)
		}
	}
	ssys, psys := *seq, *par
	ssys.Study, ssys.Contacts = seq.Federation.Union, seq.Federation.UnionContacts
	psys.Study, psys.Contacts = par.Federation.Union, par.Federation.UnionContacts
	for _, render := range renders {
		if render(&ssys) != render(&psys) {
			t.Fatal("concurrent drive changed the union study")
		}
	}
	if figures.FederationCoverage(seq.Federation) != figures.FederationCoverage(par.Federation) {
		t.Fatal("concurrent drive changed the coverage report")
	}
}

// TestFederationDuplicateNames: duplicate vantage names must fail fast
// (they would silently merge into one vantage group).
func TestFederationDuplicateNames(t *testing.T) {
	cfg := federationConfig(iotmap.TrafficModeMemory)
	cfg.Vantages[1].Name = cfg.Vantages[0].Name
	sys, err := iotmap.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Discover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.ValidateAndLocate(); err != nil {
		t.Fatal(err)
	}
	if err := sys.FederationStudy(); err == nil {
		t.Fatal("duplicate vantage names accepted")
	}
}

// TestConfigDefaults: zero config must resolve to usable defaults.
func TestConfigDefaults(t *testing.T) {
	sys, err := iotmap.New(iotmap.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if len(sys.World.Days) != 8 {
		t.Fatalf("default study period = %d days", len(sys.World.Days))
	}
	if got := len(sys.ProviderIDs()); got != 16 {
		t.Fatalf("providers = %d", got)
	}
	if sys.AliasOf("google") != "T2" {
		t.Fatal("alias mapping broken")
	}
}

// TestDeterministicRuns: two identical configs produce identical
// discovery sets and traffic aggregates.
func TestDeterministicRuns(t *testing.T) {
	run := func() *iotmap.System {
		sys, err := iotmap.New(iotmap.Config{Seed: 9, Scale: 0.02, Lines: 800, SkipLiveScan: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Discover(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := sys.ValidateAndLocate(); err != nil {
			t.Fatal(err)
		}
		if err := sys.TrafficStudy(); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	a := run()
	defer a.Close()
	b := run()
	defer b.Close()
	for _, id := range a.ProviderIDs() {
		ua, ub := discovery.SortedAddrs(a.Discovery[id].Union()), discovery.SortedAddrs(b.Discovery[id].Union())
		if len(ua) != len(ub) {
			t.Fatalf("%s: union sizes differ (%d vs %d)", id, len(ua), len(ub))
		}
		for i := range ua {
			if ua[i] != ub[i] {
				t.Fatalf("%s: address %d differs", id, i)
			}
		}
	}
	if a.Study.Downstream("T1").Total() != b.Study.Downstream("T1").Total() {
		t.Fatal("traffic totals differ across identical runs")
	}
}

// TestScenarioHelpers: the exported scenario constructors line up with
// the December study period.
func TestScenarioHelpers(t *testing.T) {
	days := iotmap.OutageStudyDays()
	if len(days) != 8 || days[0].Month() != 12 || days[0].Day() != 3 {
		t.Fatalf("outage days = %v", days[0])
	}
	sc := iotmap.AWSOutageScenario()
	start, end, err := sc.Window(days)
	if err != nil {
		t.Fatal(err)
	}
	if start.Day() != 7 || end.Day() != 7 {
		t.Fatalf("scenario window = %v..%v, want Dec 7", start, end)
	}
	study := iotmap.StudyDays()
	if len(study) != 8 || study[0].Month() != 2 || study[0].Day() != 28 {
		t.Fatalf("study days = %v", study[0])
	}
}

// TestSkipLiveScanStillDiscoversV6: without the live scan, IPv6 backends
// are still reachable through the DNS channels.
func TestSkipLiveScanStillDiscoversV6(t *testing.T) {
	sys, err := iotmap.New(iotmap.Config{Seed: 4, Scale: 0.05, SkipLiveScan: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Discover(context.Background()); err != nil {
		t.Fatal(err)
	}
	v6 := 0
	for _, id := range sys.ProviderIDs() {
		for a := range sys.Discovery[id].Union() {
			if a.Is6() && !a.Is4In6() {
				v6++
			}
		}
	}
	if v6 == 0 {
		t.Fatal("no IPv6 discovered via DNS channels")
	}
}
