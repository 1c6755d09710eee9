// Federation: the paper's core measurement runs over two vantage
// points — a residential ISP and an IXP — and asks which backends each
// can see. This demo federates three vantage worlds over one discovered
// backend set: a European residential ISP (the paper's primary vantage),
// a smaller North-America-leaning ISP, and an IXP-style feed with
// aggressive packet sampling and no subscriber scanners. Each vantage
// streams through the single-pass sharded pipeline; the vantage-tagged
// partials merge into per-vantage studies, an exact union, and the
// cross-vantage coverage report.
//
//	go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"log"

	"iotmap"
	"iotmap/internal/analysis"
	"iotmap/internal/figures"
	"iotmap/internal/geo"
)

func main() {
	sys, err := iotmap.New(iotmap.Config{
		Seed: 17, Scale: 0.05, Lines: 4000,
		SkipLiveScan: true,
		Vantages: []iotmap.VantageSpec{
			{Name: "isp-eu"},
			{Name: "isp-na", Lines: 2500, ContinentMix: map[geo.Continent]float64{
				geo.NorthAmerica: 4, geo.Europe: 0.25,
			}},
			{Name: "ixp", Lines: 3000, SamplingRate: 2048, ScannerFraction: -1},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Discover(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := sys.ValidateAndLocate(); err != nil {
		log.Fatal(err)
	}
	if err := sys.FederationStudy(); err != nil {
		log.Fatal(err)
	}
	fed := sys.Federation

	fmt.Println("per-vantage worlds:")
	for _, vr := range fed.Vantages {
		fmt.Printf("  %-8s seed=%-20d lines=%-5d sampling=1:%-5d down=%s\n",
			vr.Spec.Name, vr.Spec.Seed, len(vr.Net.Lines), vr.Net.Cfg.SamplingRate,
			analysis.HumanBytes(vr.Study.Downstream("T1").Total()))
	}
	fmt.Println()
	fmt.Println(figures.FederationCoverage(fed))

	// The union is an exact merge: per-alias volumes add bit for bit.
	sum := 0.0
	for _, vr := range fed.Vantages {
		sum += vr.Study.Downstream("T1").Total()
	}
	union := fed.Union.Downstream("T1").Total()
	fmt.Printf("union T1 downstream = %s (sum of vantages: %s, exact: %v)\n",
		analysis.HumanBytes(union), analysis.HumanBytes(sum), union == sum)
	maxB := 0
	for _, vc := range fed.Coverage.Vantages {
		if vc.Backends > maxB {
			maxB = vc.Backends
		}
	}
	fmt.Printf("coverage: union %d backends >= best single vantage %d\n", fed.Coverage.Union, maxB)
}
