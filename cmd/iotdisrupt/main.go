// Command iotdisrupt replays the December 2021 study week with the AWS
// us-east-1 outage injected and prints the Section 6 artifacts: the T1
// traffic and subscriber-line views (Figures 15-16) and the potential-
// disruption checks (Section 6.2).
//
// With -federate it additionally runs the disruption what-if suite over
// a multi-vantage federation: the clean baseline, the backend-side
// outage, and a wire-side chaos scenario (one vantage's feed corrupting
// and dying mid-week), reporting per-vantage and union deltas plus the
// degraded-vantage coverage annotations.
//
// With -suite NAME it runs a named preset scenario suite from the
// declarative engine (internal/scenario) over the same federation:
// per-step and cumulative deltas vs the clean baseline, wire-fault
// ledgers, and the suite's BGP what-if impact check. -suite list
// prints the library.
//
// Usage:
//
//	iotdisrupt [-seed N] [-scale F] [-lines N] [-federate] [-suite NAME]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"iotmap"
	"iotmap/internal/figures"
	"iotmap/internal/scenario"
)

func main() {
	seed := flag.Int64("seed", 1, "world seed")
	scale := flag.Float64("scale", 0.1, "deployment scale (1.0 = paper-sized)")
	lines := flag.Int("lines", 10000, "simulated subscriber lines")
	federate := flag.Bool("federate", false, "run the federated disruption what-if suite (outage + wire chaos)")
	suite := flag.String("suite", "", "run a preset scenario suite over the federation ('list' prints the library): "+
		strings.Join(scenario.PresetNames(), ", "))
	flag.Parse()

	if *suite == "list" {
		for _, name := range scenario.PresetNames() {
			fmt.Println(name)
		}
		return
	}

	sys, err := iotmap.New(iotmap.Config{
		Seed:   *seed,
		Scale:  *scale,
		Lines:  *lines,
		Days:   iotmap.OutageStudyDays(),
		Outage: iotmap.AWSOutageScenario(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	if err := sys.RunAll(context.Background()); err != nil {
		log.Fatal(err)
	}

	fmt.Println(figures.Figure15(sys))
	fmt.Println(figures.Figure16(sys))
	fmt.Println(figures.Cascade(sys))
	fmt.Println(figures.Section62(sys))

	if *federate {
		if err := federatedSuite(sys, *seed, *lines); err != nil {
			log.Fatal(err)
		}
	}

	if *suite != "" {
		if err := scenarioSuite(sys, *seed, *lines, *suite); err != nil {
			log.Fatal(err)
		}
	}
}

// scenarioSuite runs a named preset suite from the declarative scenario
// engine over the same 3-vantage wire-mode federation -federate uses.
func scenarioSuite(sys *iotmap.System, seed int64, lines int, name string) error {
	presets := scenario.Presets(seed)
	suite, ok := presets[name]
	if !ok {
		return fmt.Errorf("unknown suite %q (have: %s)", name, strings.Join(scenario.PresetNames(), ", "))
	}

	sys.Cfg.Outage = nil
	sys.Cfg.TrafficMode = iotmap.TrafficModeWire
	sys.Cfg.WireStreams = 3
	sys.Cfg.WirePolicy = iotmap.WireDropFrame
	sys.Cfg.Vantages = []iotmap.VantageSpec{
		{Name: "isp-a"},
		{Name: "isp-b", Lines: lines / 2},
		{Name: "ixp", SamplingRate: 1024, ScannerFraction: -1},
	}

	res, err := sys.DisruptionSuite(suite)
	if err != nil {
		return err
	}
	fmt.Println(figures.FederationCoverage(sys))
	fmt.Println(figures.SuiteDeltas(res))
	// The final (cumulative when multi-step) scenario's coverage view,
	// degraded annotations included.
	last := res.Scenarios[len(res.Scenarios)-1]
	tmp := *sys
	tmp.Federation = last.Federation
	fmt.Println(figures.FederationCoverage(&tmp))
	return nil
}

// federatedSuite runs DisruptionStudy over a 3-vantage wire-mode
// federation: a clean baseline, the AWS outage alone, and the outage
// compounded by wire chaos against the second ISP vantage.
func federatedSuite(sys *iotmap.System, seed int64, lines int) error {
	// The baseline federation must be clean: drop the single-run outage
	// before federating.
	sys.Cfg.Outage = nil
	sys.Cfg.TrafficMode = iotmap.TrafficModeWire
	sys.Cfg.WireStreams = 3
	sys.Cfg.WirePolicy = iotmap.WireDropFrame
	sys.Cfg.Vantages = []iotmap.VantageSpec{
		{Name: "isp-a"},
		{Name: "isp-b", Lines: lines / 2},
		{Name: "ixp", SamplingRate: 1024, ScannerFraction: -1},
	}

	scenarios := []iotmap.DisruptionScenario{
		{Name: "aws-outage", Outage: iotmap.AWSOutageScenario()},
		{
			Name:   "outage+wire-chaos",
			Outage: iotmap.AWSOutageScenario(),
			Faults: &iotmap.FaultScenario{
				Seed: seed,
				Rules: []iotmap.FaultRule{
					// isp-b's feeds corrupt all week...
					{Stream: -1, Vantage: "isp-b", Faults: iotmap.Faults{CorruptProb: 0.01}},
					// ...and die outright Wednesday 14:00.
					{Stream: -1, Vantage: "isp-b", FromHour: 2*24 + 14, Faults: iotmap.Faults{Kill: true}},
				},
			},
		},
	}
	res, err := sys.DisruptionStudy(scenarios)
	if err != nil {
		return err
	}
	fmt.Println(figures.FederationCoverage(sys))
	fmt.Println(figures.DisruptionDeltas(res))
	// The chaos scenario's own coverage view, degraded annotations
	// included.
	chaos := res.Scenarios[len(res.Scenarios)-1]
	tmp := *sys
	tmp.Federation = chaos.Federation
	fmt.Println(figures.FederationCoverage(&tmp))
	return nil
}
