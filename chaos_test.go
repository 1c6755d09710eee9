package iotmap_test

import (
	"context"
	"reflect"
	"testing"

	"iotmap"
	"iotmap/internal/core/flows"
	"iotmap/internal/figures"
	"iotmap/internal/scenario"
)

// TestGoldenWirePolicyIdentity: the graceful error policies on a CLEAN
// wire feed are pure insurance — DropFrame and QuarantineStream must
// reproduce every Section 5 golden byte-identically, with every
// degradation counter at zero. (Abort is the policy the goldens already
// run under in TestGoldenWireFigures.)
func TestGoldenWirePolicyIdentity(t *testing.T) {
	for _, pol := range []iotmap.ErrorPolicy{iotmap.WireDropFrame, iotmap.WireQuarantineStream} {
		t.Run(pol.String()+"/dict", func(t *testing.T) {
			sys, err := iotmap.New(iotmap.Config{
				Seed: 71, Scale: 0.05, Lines: 5000,
				TrafficMode: iotmap.TrafficModeWire, WireStreams: 4,
				WirePolicy: pol,
			})
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
			if err := sys.TrafficStudy(); err != nil {
				t.Fatal(err)
			}
			if err := sys.Disrupt(); err != nil {
				t.Fatal(err)
			}
			st := sys.WireIngest
			if st.DroppedFrames != 0 || st.ResyncEvents != 0 || st.StallTimeouts != 0 ||
				st.Reconnects != 0 || st.QuarantinedStreams != 0 {
				t.Fatalf("%s: clean feed reported degradation: %+v", pol, st)
			}
			for name, render := range goldenSection5 {
				checkGolden(t, name, render(sys))
			}
		})
	}
}

// chaosSuite is the acceptance fault schedule as a one-step suite: a
// 1% frame corruption across every stream, while isp-b's links
// additionally melt down — a bit flip in every other row run until
// study-hour 120 (length-field flips force strict-decode drops,
// magic/type flips force resync scans) and total row loss from hour 120
// on, blanking whole hours at that vantage while its siblings keep
// covering them. The suite seed derives the schedule's fault seed.
func chaosSuite() scenario.Suite {
	return scenario.Suite{Name: "chaos", Seed: 1, Steps: []scenario.Step{{
		Name: "isp-b-meltdown",
		Wire: []iotmap.FaultRule{
			{Stream: -1, Faults: iotmap.Faults{CorruptProb: 0.01}},
			{Stream: -1, Vantage: "isp-b", ToHour: 120, Faults: iotmap.Faults{CorruptProb: 0.5}},
			{Stream: -1, Vantage: "isp-b", FromHour: 120, Faults: iotmap.Faults{DropProb: 1}},
		},
	}}}
}

// runChaosSuite runs chaosSuite over the wire-mode three-vantage
// federation under DropFrame and returns its one scenario.
func runChaosSuite(t *testing.T) iotmap.ScenarioResult {
	t.Helper()
	cfg := federationConfig(iotmap.TrafficModeWire)
	cfg.WirePolicy = iotmap.WireDropFrame
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
	res, err := sys.DisruptionSuite(chaosSuite())
	if err != nil {
		t.Fatalf("chaos suite aborted under DropFrame: %v", err)
	}
	if len(res.Scenarios) != 1 {
		t.Fatalf("scenarios = %d, want 1", len(res.Scenarios))
	}
	return res.Scenarios[0]
}

// TestChaosFederationAcceptance is the degraded-study acceptance
// criterion: with ErrorPolicy DropFrame and a seeded faultwire feed, the
// three-vantage federation study completes without aborting, every
// isp-b stream reports dropped frames AND resync scans, the coverage
// report flags isp-b as degraded, and a rerun with the same suite seed
// reproduces the figures, wire stats and fault ledger byte for byte.
func TestChaosFederationAcceptance(t *testing.T) {
	sc := runChaosSuite(t)
	fed := sc.Federation

	var ispB *iotmap.VantageResult
	for _, vr := range fed.Vantages {
		if vr.Spec.Name == "isp-b" {
			ispB = vr
		}
		if vr.WireIngest == nil {
			t.Fatalf("vantage %s kept no ingest stats", vr.Spec.Name)
		}
	}
	if len(ispB.WireStreams) != 3 {
		t.Fatalf("isp-b streams = %d", len(ispB.WireStreams))
	}
	for _, ss := range ispB.WireStreams {
		if ss.DroppedFrames == 0 || ss.ResyncEvents == 0 {
			t.Fatalf("isp-b stream %d survived unscathed: dropped=%d resyncs=%d (want both nonzero)",
				ss.Stream, ss.DroppedFrames, ss.ResyncEvents)
		}
		if ss.HoursCovered >= ss.HoursTotal {
			t.Fatalf("isp-b stream %d claims full coverage despite the truncation window", ss.Stream)
		}
	}

	var bCov *flows.VantageCoverage
	for i, vc := range fed.Coverage.Vantages {
		if vc.Vantage == "isp-b" {
			bCov = &fed.Coverage.Vantages[i]
		}
	}
	if bCov == nil {
		t.Fatal("isp-b missing from the coverage report")
	}
	if !bCov.Degraded {
		t.Fatalf("isp-b not flagged degraded: %+v", *bCov)
	}
	if bCov.HoursCovered >= bCov.HoursTotal {
		t.Fatalf("isp-b hours %d/%d — degraded flag without hour loss", bCov.HoursCovered, bCov.HoursTotal)
	}
	if sc.FaultTotals == nil || sc.FaultTotals.Corrupted == 0 || sc.FaultTotals.Dropped == 0 {
		t.Fatalf("scenario injected nothing: %+v", sc.FaultTotals)
	}

	// Same seed, fresh world: byte-identical figures and stats.
	again := runChaosSuite(t)
	if a, b := figures.FederationCoverage(fed), figures.FederationCoverage(again.Federation); a != b {
		t.Fatalf("coverage figure not reproducible:\n--- run 1:\n%s\n--- run 2:\n%s", a, b)
	}
	for i, vr := range fed.Vantages {
		vr2 := again.Federation.Vantages[i]
		if !reflect.DeepEqual(vr.WireIngest, vr2.WireIngest) {
			t.Fatalf("vantage %s ingest stats diverged:\n%+v\n%+v", vr.Spec.Name, *vr.WireIngest, *vr2.WireIngest)
		}
		if !reflect.DeepEqual(vr.WireStreams, vr2.WireStreams) {
			t.Fatalf("vantage %s stream stats diverged", vr.Spec.Name)
		}
	}
	if a, b := sc.FaultTotals, again.FaultTotals; b == nil || *a != *b {
		t.Fatalf("fault totals diverged: %+v vs %+v", a, b)
	}
}
