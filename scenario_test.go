package iotmap_test

import (
	"context"
	"maps"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"iotmap"
	"iotmap/internal/asdb"
	"iotmap/internal/bgpstream"
	"iotmap/internal/core/validate"
	"iotmap/internal/figures"
	"iotmap/internal/scenario"
)

// suiteFederation builds the three-vantage federation the scenario
// suites run over, in wire mode.
func suiteFederation(t *testing.T) *iotmap.System {
	t.Helper()
	cfg := federationConfig(iotmap.TrafficModeWire)
	cfg.WirePolicy = iotmap.WireDropFrame
	return validatedOutageWeek(t, cfg)
}

// validatedOutageWeek builds cfg's system over the outage week, through
// discovery and validation.
func validatedOutageWeek(t *testing.T, cfg iotmap.Config) *iotmap.System {
	t.Helper()
	cfg.Days = iotmap.OutageStudyDays()
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
	return sys
}

// deltaFor returns the named vantage's delta row of one scenario.
func deltaFor(t *testing.T, sc iotmap.ScenarioResult, vantage string) iotmap.VantageDelta {
	t.Helper()
	for _, vd := range sc.Vantages {
		if vd.Vantage == vantage {
			return vd
		}
	}
	t.Fatalf("vantage %s missing from scenario %s", vantage, sc.Name)
	return iotmap.VantageDelta{}
}

// TestEmptySuiteMatchesBaseline: a suite with no steps is the identity
// what-if — DisruptionSuite's output is exactly the clean
// FederationStudy baseline, byte for byte.
func TestEmptySuiteMatchesBaseline(t *testing.T) {
	cfg := federationConfig(iotmap.TrafficModeMemory)
	cfg.Days = iotmap.OutageStudyDays()

	clean, err := iotmap.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clean.Close)
	if err := clean.Discover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := clean.ValidateAndLocate(); err != nil {
		t.Fatal(err)
	}
	if err := clean.FederationStudy(); err != nil {
		t.Fatal(err)
	}

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
	res, err := sys.DisruptionSuite(scenario.Suite{Name: "empty", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 0 {
		t.Fatalf("empty suite compiled %d scenarios", len(res.Scenarios))
	}
	if res.Baseline == nil || res.Baseline != sys.Federation {
		t.Fatal("baseline is not the system's own federation")
	}
	if len(res.Events) != 0 || len(res.Impacts) != 0 {
		t.Fatalf("empty suite injected events (%d) or impacts (%d)", len(res.Events), len(res.Impacts))
	}
	if a, b := figures.FederationCoverage(clean.Federation), figures.FederationCoverage(sys.Federation); a != b {
		t.Fatalf("empty-suite baseline diverged from a clean FederationStudy:\n--- clean:\n%s\n--- suite:\n%s", a, b)
	}
}

// TestScenarioSuite drives each preset shape through the engine over
// the wire-mode federation and checks its semantic fingerprint:
// hijacks hit exactly the vantages that accepted the route, a regional
// outage with feed loss degrades the vantage that lost its feed, and a
// pure control-plane migration changes nothing at all.
func TestScenarioSuite(t *testing.T) {
	run := func(t *testing.T, name string) (*iotmap.System, *iotmap.SuiteStudyResult) {
		t.Helper()
		sys := suiteFederation(t)
		suite, ok := scenario.Presets(5)[name]
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		res, err := sys.DisruptionSuite(suite)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Scenarios) != 1 {
			t.Fatalf("scenarios = %d, want 1", len(res.Scenarios))
		}
		return sys, res
	}

	t.Run("hijack", func(t *testing.T) {
		_, res := run(t, scenario.PresetHijackT1)
		sc := res.Scenarios[0]
		if vd := deltaFor(t, sc, "isp-a"); vd.DownDeltaPct >= 0 {
			t.Fatalf("isp-a accepted the hijack but kept its traffic: %+v", vd)
		}
		if vd := deltaFor(t, sc, "ixp"); vd.DownDeltaPct > 0 {
			t.Fatalf("ixp gained traffic under a blackhole hijack: %+v", vd)
		}
		// isp-b's upstream rejected the bogus route: its run is
		// bit-identical to the baseline.
		if vd := deltaFor(t, sc, "isp-b"); vd.DownDeltaPct != 0 || vd.HoursLost != 0 || vd.Backends != vd.BaselineBackends {
			t.Fatalf("isp-b was not part of the hijack's visibility set: %+v", vd)
		}
		if sc.UnionDownDeltaPct >= 0 {
			t.Fatalf("union down delta = %.2f%%, want negative", sc.UnionDownDeltaPct)
		}
		for _, vd := range sc.Vantages {
			if vd.Degraded || vd.HoursLost != 0 {
				t.Fatalf("a traffic-plane hijack blanked feed hours at %s: %+v", vd.Vantage, vd)
			}
		}
		if sc.FaultTotals != nil {
			t.Fatalf("hijack scenario carries a wire-fault ledger: %+v", *sc.FaultTotals)
		}
		// The control-plane view: announcements went out and they cover
		// monitored backend space.
		if len(res.Events) == 0 {
			t.Fatal("hijack suite injected no BGP events")
		}
		if len(res.Impacts) == 0 {
			t.Fatal("hijack of a provider's own prefixes touched no monitored backend")
		}
	})

	t.Run("outage-feeddeath", func(t *testing.T) {
		sys, res := run(t, scenario.PresetOutageFeedLoss)
		sc := res.Scenarios[0]
		vd := deltaFor(t, sc, "isp-b")
		if vd.HoursLost == 0 {
			t.Fatalf("isp-b's feed died mid-week but lost no hours: %+v", vd)
		}
		if !vd.Degraded {
			t.Fatalf("isp-b not flagged degraded after feed death: %+v", vd)
		}
		if sc.UnionDownDeltaPct >= 0 {
			t.Fatalf("union down delta = %.2f%% despite a regional outage", sc.UnionDownDeltaPct)
		}
		if sc.FaultTotals == nil || !sc.FaultTotals.Killed {
			t.Fatalf("fault ledger missing the feed kill: %+v", sc.FaultTotals)
		}
		// The scenario's own coverage report carries the degraded flag.
		var flagged bool
		for _, vc := range sc.Federation.Coverage.Vantages {
			if vc.Vantage == "isp-b" && vc.Degraded {
				flagged = true
			}
		}
		if !flagged {
			t.Fatal("scenario coverage report does not flag isp-b degraded")
		}
		// The healthy vantages keep their feed hours.
		for _, name := range []string{"isp-a", "ixp"} {
			if vd := deltaFor(t, sc, name); vd.HoursLost != 0 || vd.Degraded {
				t.Fatalf("%s lost feed hours to isp-b's exporter dying: %+v", name, vd)
			}
		}
		_ = sys
	})

	t.Run("migration", func(t *testing.T) {
		sys, res := run(t, scenario.PresetMigrationD1)
		sc := res.Scenarios[0]
		// Addresses did not change: a pure control-plane migration is
		// invisible to every traffic and coverage figure.
		for _, vd := range sc.Vantages {
			if vd.DownDeltaPct != 0 || vd.HoursLost != 0 || vd.Degraded || vd.Backends != vd.BaselineBackends {
				t.Fatalf("control-plane migration moved the traffic plane at %s: %+v", vd.Vantage, vd)
			}
		}
		if sc.UnionBackendsDelta != 0 || sc.UnionDownDeltaPct != 0 {
			t.Fatalf("union deltas nonzero under a pure migration: %+v", sc)
		}
		if sc.FaultTotals != nil {
			t.Fatal("migration scenario carries a wire-fault ledger")
		}
		if a, b := figures.FederationCoverage(sys.Federation), figures.FederationCoverage(sc.Federation); a != b {
			t.Fatalf("migration changed the coverage report:\n--- baseline:\n%s\n--- scenario:\n%s", a, b)
		}
	})
}

// TestDisruptionSuiteOutageOnly: an outage-only one-step suite reuses
// the system's own federation as its baseline and leaves it untouched,
// and reports per-vantage and union deltas. An outage removes traffic
// without blanking feed hours, so nobody is marked degraded.
func TestDisruptionSuiteOutageOnly(t *testing.T) {
	sys := validatedOutageWeek(t, federationConfig(iotmap.TrafficModeMemory))
	if err := sys.FederationStudy(); err != nil {
		t.Fatal(err)
	}
	baseline := sys.Federation
	baselineCov := figures.FederationCoverage(baseline)
	baselineCheck := map[string]map[string]validate.TrafficReport{}
	for _, vr := range baseline.Vantages {
		baselineCheck[vr.Spec.Name] = maps.Clone(vr.CrossCheck)
	}
	res, err := sys.DisruptionSuite(scenario.Suite{Name: "aws", Seed: 5, Steps: []scenario.Step{
		{Name: "aws-outage", Outage: iotmap.AWSOutageScenario()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline != baseline || sys.Federation != baseline {
		t.Fatal("baseline is not the system's own federation")
	}
	if len(res.Scenarios) != 1 {
		t.Fatalf("scenarios = %d", len(res.Scenarios))
	}
	sc := res.Scenarios[0]
	if sc.Federation == nil || sc.Federation == baseline {
		t.Fatal("scenario federation missing or aliased to the baseline")
	}
	if len(sc.Vantages) != 3 {
		t.Fatalf("vantage deltas = %d", len(sc.Vantages))
	}
	for _, vd := range sc.Vantages {
		if vd.HoursLost != 0 || vd.Degraded {
			t.Fatalf("outage-only scenario blanked feed hours at %s: %+v", vd.Vantage, vd)
		}
		if vd.DownDeltaPct > 0 {
			t.Fatalf("%s gained traffic from an outage: %+v", vd.Vantage, vd)
		}
	}
	if sc.UnionDownDeltaPct >= 0 {
		t.Fatalf("union down delta = %.2f%%, want negative", sc.UnionDownDeltaPct)
	}
	// Running the scenario must not have touched the baseline system.
	if got := figures.FederationCoverage(sys.Federation); got != baselineCov {
		t.Fatal("DisruptionSuite mutated the baseline coverage")
	}
	for _, vr := range sys.Federation.Vantages {
		if !reflect.DeepEqual(vr.CrossCheck, baselineCheck[vr.Spec.Name]) {
			t.Fatalf("DisruptionSuite rewrote %s's traffic cross-check", vr.Spec.Name)
		}
	}
}

// TestDisruptionSuiteMemoryModeRejectsWireRules: memory mode exports no
// stream for a wire rule to fault, so a suite with wire rules is refused
// before the baseline runs instead of reporting a clean wire.
func TestDisruptionSuiteMemoryModeRejectsWireRules(t *testing.T) {
	sys := validatedOutageWeek(t, federationConfig(iotmap.TrafficModeMemory))
	res, err := sys.DisruptionSuite(scenario.Presets(5)[scenario.PresetOutageWireChaos])
	if err == nil {
		t.Fatalf("memory-mode suite with wire rules ran: %d scenarios", len(res.Scenarios))
	}
	if sys.Federation != nil {
		t.Fatal("the baseline ran before the wire rules were refused")
	}
}

// TestSuiteComposesOverConfiguredOutage: scenario runs compose their
// step over Config.Outage exactly as the baseline does, so a pure
// control-plane migration on a system with an outage configured still
// reports zero deltas at every vantage and in the union.
func TestSuiteComposesOverConfiguredOutage(t *testing.T) {
	cfg := federationConfig(iotmap.TrafficModeMemory)
	cfg.Outage = iotmap.AWSOutageScenario()
	sys := validatedOutageWeek(t, cfg)
	res, err := sys.DisruptionSuite(scenario.Presets(5)[scenario.PresetMigrationD1])
	if err != nil {
		t.Fatal(err)
	}
	sc := res.Scenarios[0]
	for _, vd := range sc.Vantages {
		if vd.DownDeltaPct != 0 || vd.HoursLost != 0 || vd.Backends != vd.BaselineBackends {
			t.Fatalf("migration over a configured outage moved the traffic plane at %s: %+v", vd.Vantage, vd)
		}
	}
	if sc.UnionBackendsDelta != 0 || sc.UnionDownDeltaPct != 0 {
		t.Fatalf("union deltas nonzero under a pure migration: %+v", sc)
	}
}

// TestOutageWireChaosSuite: the two-plane preset separates the outage
// from isp-b's feed chaos. The outage step degrades nobody and carries
// no fault ledger; the wire step and the cumulative run leave isp-b
// degraded with corruptions and a kill on the ledger; and wire faults
// on isp-b's streams leave the other vantages exactly as the outage
// alone left them.
func TestOutageWireChaosSuite(t *testing.T) {
	sys := suiteFederation(t)
	res, err := sys.DisruptionSuite(scenario.Presets(5)[scenario.PresetOutageWireChaos])
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sc := range res.Scenarios {
		names = append(names, sc.Name)
	}
	want := []string{"outage-wire-chaos/aws-outage", "outage-wire-chaos/wire-chaos", "outage-wire-chaos/cumulative"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("scenarios = %v, want %v", names, want)
	}
	outage, chaos, cumulative := res.Scenarios[0], res.Scenarios[1], res.Scenarios[2]
	if outage.FaultTotals != nil {
		t.Fatalf("outage step carries a fault ledger: %+v", *outage.FaultTotals)
	}
	for _, vd := range outage.Vantages {
		if vd.Degraded || vd.HoursLost != 0 || vd.DownDeltaPct > 0 {
			t.Fatalf("outage step at %s: %+v", vd.Vantage, vd)
		}
	}
	for _, sc := range []iotmap.ScenarioResult{chaos, cumulative} {
		if vd := deltaFor(t, sc, "isp-b"); !vd.Degraded || vd.HoursLost == 0 {
			t.Fatalf("%s: isp-b not degraded: %+v", sc.Name, vd)
		}
		if ft := sc.FaultTotals; ft == nil || ft.Corrupted == 0 || !ft.Killed {
			t.Fatalf("%s: fault ledger %+v, want corruptions and a kill", sc.Name, ft)
		}
	}
	for _, name := range []string{"isp-a", "ixp"} {
		if a, b := deltaFor(t, outage, name), deltaFor(t, cumulative, name); a != b {
			t.Fatalf("%s: isp-b's wire chaos moved another vantage:\n outage     %+v\n cumulative %+v", name, a, b)
		}
		if vd := deltaFor(t, chaos, name); vd.DownDeltaPct != 0 || vd.Degraded {
			t.Fatalf("%s moved under isp-b's wire chaos: %+v", name, vd)
		}
	}
}

// TestSuiteRerunByteIdentical: the reproducibility contract — the same
// suite over a fresh world with the same seeds reproduces every
// figure, coverage report, and fault ledger byte for byte.
func TestSuiteRerunByteIdentical(t *testing.T) {
	run := func() *iotmap.SuiteStudyResult {
		sys := suiteFederation(t)
		res, err := sys.DisruptionSuite(scenario.Presets(5)[scenario.PresetOutageFeedLoss])
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res1 := run()
	res2 := run()

	if a, b := figures.SuiteDeltas(res1), figures.SuiteDeltas(res2); a != b {
		t.Fatalf("suite deltas not reproducible:\n--- run 1:\n%s\n--- run 2:\n%s", a, b)
	}
	for i := range res1.Scenarios {
		a := figures.FederationCoverage(res1.Scenarios[i].Federation)
		b := figures.FederationCoverage(res2.Scenarios[i].Federation)
		if a != b {
			t.Fatalf("scenario %s coverage not reproducible:\n--- run 1:\n%s\n--- run 2:\n%s",
				res1.Scenarios[i].Name, a, b)
		}
		ft1, ft2 := res1.Scenarios[i].FaultTotals, res2.Scenarios[i].FaultTotals
		if (ft1 == nil) != (ft2 == nil) || (ft1 != nil && *ft1 != *ft2) {
			t.Fatalf("scenario %s fault ledger diverged: %+v vs %+v", res1.Scenarios[i].Name, ft1, ft2)
		}
	}
}

// TestMigrationOriginSemantics: the time-aware origin resolver answers
// with the old AS before the cutover and the new AS after, so an AS
// outage of the abandoned AS stops matching the fleet that left it.
func TestMigrationOriginSemantics(t *testing.T) {
	sys, err := iotmap.New(iotmap.Config{Seed: 3, Scale: 0.02, Lines: 500, SkipLiveScan: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	w := sys.World

	const cutoverHour = 5*24 + 12
	suite := scenario.Suite{Name: "mig", Seed: 9, Steps: []scenario.Step{{
		Name: "move",
		Migration: &scenario.Migration{
			Provider: "bosch", ToASN: scenario.MigrationTargetASN, AtHour: cutoverHour,
		},
	}}}

	var boschAddr netip.Addr
	for _, srv := range w.AllServers() {
		if srv.Provider == "bosch" {
			boschAddr = srv.Addr
			break
		}
	}
	if !boschAddr.IsValid() {
		t.Fatal("world has no bosch servers at this scale")
	}
	oldASN, ok := w.AS.Origin(boschAddr)
	if !ok {
		t.Fatal("bosch address has no origin AS")
	}

	origin := suite.OriginAt(w)
	cutover := w.Days[0].Add(cutoverHour * time.Hour)
	if asn, _ := origin(boschAddr, cutover.Add(-time.Hour)); asn != oldASN {
		t.Fatalf("pre-cutover origin = AS%d, want AS%d", asn, oldASN)
	}
	if asn, _ := origin(boschAddr, cutover); asn != scenario.MigrationTargetASN {
		t.Fatalf("post-cutover origin = AS%d, want AS%d", asn, scenario.MigrationTargetASN)
	}

	// An outage of the abandoned AS matches before the cutover only; an
	// outage of the new AS matches after only.
	addrs := []netip.Addr{boschAddr}
	check := func(asn asdb.ASN, at time.Time) int {
		feed := bgpstream.NewFeed([]bgpstream.Event{{Kind: bgpstream.ASOutage, ASN: asn, At: at}})
		return len(feed.CheckImpactAt(addrs, origin))
	}
	if n := check(oldASN, cutover.Add(-time.Hour)); n != 1 {
		t.Fatalf("pre-cutover outage of the old AS: %d impacts, want 1", n)
	}
	if n := check(oldASN, cutover.Add(time.Hour)); n != 0 {
		t.Fatalf("post-cutover outage of the abandoned AS still matches: %d impacts", n)
	}
	if n := check(scenario.MigrationTargetASN, cutover.Add(time.Hour)); n != 1 {
		t.Fatalf("post-cutover outage of the new AS: %d impacts, want 1", n)
	}
	if n := check(scenario.MigrationTargetASN, cutover.Add(-time.Hour)); n != 0 {
		t.Fatalf("pre-cutover outage of the not-yet-occupied AS matches: %d impacts", n)
	}
}
