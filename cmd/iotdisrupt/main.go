// Command iotdisrupt replays the December 2021 study week with the AWS
// us-east-1 outage injected and prints the Section 6 artifacts: the T1
// traffic and subscriber-line views (Figures 15-16) and the potential-
// disruption checks (Section 6.2).
//
// With -suite NAME it additionally runs a named preset scenario suite
// from the declarative engine (internal/scenario) over a three-vantage
// wire-mode federation (isp-a, isp-b, ixp): the clean baseline coverage,
// per-step and cumulative deltas vs that baseline with wire-fault
// ledgers, the suite's BGP what-if impact check, and the last
// scenario's coverage with its degraded-vantage annotations. -suite
// outage-wire-chaos, for one, runs the AWS outage, isp-b's feeds
// corrupting and dying mid-week, and both at once. -suite list prints
// the library.
//
// Usage:
//
//	iotdisrupt [-seed N] [-scale F] [-lines N] [-suite NAME]
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

	if *suite != "" {
		if err := scenarioSuite(sys, *seed, *lines, *suite); err != nil {
			log.Fatal(err)
		}
	}
}

// scenarioSuite runs a named preset suite from the declarative scenario
// engine over a 3-vantage wire-mode federation.
func scenarioSuite(sys *iotmap.System, seed int64, lines int, name string) error {
	presets := scenario.Presets(seed)
	suite, ok := presets[name]
	if !ok {
		return fmt.Errorf("unknown suite %q (have: %s)", name, strings.Join(scenario.PresetNames(), ", "))
	}

	// The suite's baseline is the clean week: outages are steps of the
	// suite, not part of the federation every scenario composes over.
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
	fmt.Println(figures.FederationCoverage(res.Baseline))
	fmt.Println(figures.SuiteDeltas(res))
	// The final (cumulative when multi-step) scenario's coverage view,
	// degraded annotations included.
	fmt.Println(figures.FederationCoverage(res.Scenarios[len(res.Scenarios)-1].Federation))
	return nil
}
